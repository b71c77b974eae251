"""Byte identity of the serialized outputs.

The sha256 of the `sfom basis` JSON (under the prime engine's own splitting
stream and under an injected one) and of the `sfom tree` JSON is pinned for a
fixed set of fixtures.  A change that alters any output byte fails here; such
a change must update the hashes and say why.
"""

import functools
import hashlib
import random

import pytest

from conftest import (example1, example2, example3, is_irreducible_over_z,
                      refine_fixture)
from sfom import cli
from sfom import intarith as ia
from sfom import omprime as op

BIG = 10007 * 10009


def _random_field(seed, degree=12, height=60):
    rng = random.Random(seed)
    while True:
        f = tuple(rng.randrange(-height, height + 1) for _ in range(degree))
        f += (1,)
        if is_irreducible_over_z(f):
            return f


def _disc_part_above_degree(f):
    """|disc f| without its primes <= deg f: a valid `tree` modulus."""
    d = abs(ia.discriminant(f))
    for p in ia._small_primes(ia.pdeg(f)):
        while d % p == 0:
            d //= p
    return d


@functools.lru_cache(maxsize=None)
def _fixtures():
    """name -> (f, modulus for `tree`)."""
    out = {
        "example1_35": (example1(35), 35),
        "example2_11_3_5": (example2(11, 3, 5), 11),
        "refine_35": (refine_fixture(35), 35),
        "example1_big": (example1(BIG), BIG),
        "example3_1_big": (example3(1, BIG)[0], BIG),
    }
    f = example3(1, 35)[0]
    out["example3_1_35"] = (f, _disc_part_above_degree(f))
    for seed in (1, 2):
        f = _random_field(seed)
        out[f"random12_{seed}"] = (f, _disc_part_above_degree(f))
    return out


def _sha(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


# the stream only steers random splitting in the prime engine, whose output
# is sorted, so every stream gives the same bytes
BASIS = {
    "example1_35":
        "c201202717a209b953326ea2b031711434d43b2e25a439fab0a8c1c9d1c09d50",
    "example1_big":
        "04114a4c9bb0940c76af7d9c848e72007af263344eaae4d92e6fab134e1ffd56",
    "example2_11_3_5":
        "41ec3c3c36cd63be2100ba6416a8b5e4544504a686f8937a21e0b817f227a32c",
    "example3_1_35":
        "01cef4e44e8c20f702631401b44e585e7a1462024851d31de8b388d92589ea84",
    "example3_1_big":
        "d8fda13015910a3b75b0cb849f446fc2be732290df92066a6b5e19c8911bfa73",
    "random12_1":
        "3de71a5fe976bc77df2b52cc48c606c141088a04e5f18250468152e56abc67e4",
    "random12_2":
        "79d52d6c5b79d7f04729f475508d2f736054a4336e23c6239f5799eb60768608",
    "refine_35":
        "e02f1c8956244051a085eff0523fa0501a63affd426e629a1ee461bc5155aff0",
}

TREE = {
    "example1_35":
        "6921dc88de0c78318920b23e0a3b4a8baee07952b6a6035714c036286e947ca7",
    "example1_big":
        "8978bf75e33d7fb86603e56f0fea7cfa4ac258e345a031bd4da2443896b1a1f9",
    "example2_11_3_5":
        "bc38c429245536437b98b15b8d038a42f65e2755a99b9152f4ba37fabe758ad7",
    "example3_1_35":
        "40380753ba72dc49be87debe46fedc2b3be37a6e3f47ad81017c9a7cbfb22e24",
    "example3_1_big":
        "993efe6ce597c3307f4be4c30d8debb11c627a9a3d2e6f66594c0d347fb24195",
    "random12_1":
        "0772562441aec2dd6ac7593dc54498b32f42e36943417ff85f51a8d7ad40a074",
    "random12_2":
        "4d3fcb5f2ddcee386faac2526a0142112ccec5d76a1a28a64e794ed6f60f8884",
    "refine_35":
        "2f14c33e3cb607e57884d6bc6f5f28468c7ad296e613ef04231f4f62e055457d",
}


@pytest.mark.parametrize("stream", [0, 7])
@pytest.mark.parametrize("name", sorted(BASIS))
def test_basis_json_is_pinned(capsys, monkeypatch, name, stream):
    if stream:
        # every equal-degree split of the run draws from Random(stream)
        # instead of the prime engine's own fixed stream
        ours = random.Random(stream)
        factor = op.ff_factor
        monkeypatch.setattr(op, "ff_factor",
                            lambda tower, g, rng: factor(tower, g, ours))
    f, _ = _fixtures()[name]
    argv = ["basis", "--poly=" + ",".join(map(str, f))]
    assert _sha(capsys, argv) == BASIS[name]


@pytest.mark.parametrize("name", sorted(TREE))
def test_tree_json_is_pinned(capsys, name):
    f, modulus = _fixtures()[name]
    argv = ["tree", "--poly=" + ",".join(map(str, f)),
            "--modulus", str(modulus)]
    assert _sha(capsys, argv) == TREE[name]
