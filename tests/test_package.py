"""Package-level contracts: what importing sfom loads, the value records,
the checks every library entry point makes on its input, and the golden
outputs under `python -O`."""

import copy
import importlib
import json
import pathlib
import pickle
import subprocess
import sys

import pytest

from conftest import example1, refine_fixture
from sfom import global_basis, om_prime, sfom
from sfom.artinalg import FactorEvent, PolyA, Record
from sfom.basis import BasisElement, IntegerLattice
from test_golden import BASIS, TREE, _fixtures

sfm = importlib.import_module("sfom.sfom")
st = importlib.import_module("sfom.sftypes")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# modules only `verify` and `p_maximal` need; a plain import must not load them
LAZY = ("dataclasses", "fractions", "decimal", "sfom.validate")

PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import sfom
after_root = set(sys.modules)
import sfom.cli
after_cli = set(sys.modules)
from sfom import p_maximal
try:
    sfom.no_such_name
    missing = "no error"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({{
    "root": sorted(after_root - before), "cli": sorted(after_cli - before),
    "lazy": p_maximal is sfom.p_maximal and "p_maximal" not in vars(sfom),
    "validate_loaded": "sfom.validate" in sys.modules, "missing": missing}}))
"""


def test_import_graph_leaves_the_oracles_out():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, timeout=60, check=True)
    seen = json.loads(done.stdout)
    assert "sfom.cli" in seen["cli"]
    for step in ("root", "cli"):
        assert not set(LAZY) & set(seen[step]), step
    # p_maximal still resolves, from the package and by `from sfom import`,
    # without being cached in the package namespace
    assert seen["lazy"] and seen["validate_loaded"]
    assert seen["missing"] == "AttributeError"


# `python -O` drops every assert, the value checks in `make_child` with
# them, so nothing here may run inside one
OPTIMIZED = f"""
import contextlib, hashlib, io, json, sys
sys.path.insert(0, {str(SRC)!r})
from sfom import cli
runs = {{}}
for key, argv in json.loads(sys.stdin.read()).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs[key] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps({{"debug": __debug__, "runs": runs}}))
"""


def test_golden_outputs_hold_without_asserts():
    calls, want = {}, {}
    for name, (f, modulus) in _fixtures().items():
        poly = "--poly=" + ",".join(map(str, f))
        calls["basis " + name] = ["basis", poly]
        calls["tree " + name] = ["tree", poly, "--modulus", str(modulus)]
        want["basis " + name] = [0, BASIS[name]]
        want["tree " + name] = [0, TREE[name]]
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED],
                          input=json.dumps(calls), capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(done.stdout)
    assert seen["debug"] is False
    assert seen["runs"] == want


def test_records_are_immutable_values():
    a, b = PolyA(0, ((1,), (2,))), PolyA(0, ((1,), (2,)))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != PolyA(1, ((1,), (2,)))
    assert a != (0, ((1,), (2,)))
    lat = [IntegerLattice(2, ((1, 0), (0, 1)), 2) for _ in range(2)]
    assert lat[0] == lat[1] and hash(lat[0]) == hash(lat[1])
    el = [BasisElement((1, 2), 3) for _ in range(2)]
    assert el[0] == el[1] and hash(el[0]) == hash(el[1])
    assert len({a, b, *lat, *el}) == 3
    for record, field in ((a, "coeffs"), (lat[0], "den"), (el[0], "den_exp")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(TypeError):
        BasisElement((1,))


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("sfom."):
            yield sub
        yield from _record_classes(sub)


def _plain(x):
    """x with records taken apart by field and type nodes by their level
    data up the chain, so that copies compare equal to their originals."""
    if isinstance(x, st.SFType):
        return (x.order, x.t, x.g, x.h, x.e, x.omega, x.V, _plain(x.parent))
    if isinstance(x, Record):
        return type(x), tuple(_plain(getattr(x, n)) for n in x.__slots__)
    if isinstance(x, (list, tuple)):
        return tuple(map(_plain, x))
    return x


def test_records_and_events_copy_and_pickle(monkeypatch):
    # one record of every class and the FactorEvents of a real run come back
    # from pickle, copy and deepcopy equal to the original, and a record
    # still refuses to change a field
    items, events = [], []
    process, handle = sfm._process, sfm._handle_event

    def recording_process(state, item, *args):
        items.append(item)
        return process(state, item, *args)

    def recording_handle(state, ev, ctx):
        events.append(ev)
        return handle(state, ev, ctx)

    monkeypatch.setattr(sfm, "_process", recording_process)
    monkeypatch.setattr(sfm, "_handle_event", recording_handle)
    out = sfom(refine_fixture(35), 35)
    node = next(n for leaf in out.rep.leaves for n in leaf.chain()[1:]
                if n.f_exp is not None)
    polygon = st.newton(node, node.f_exp)
    result = global_basis(refine_fixture(35), 35)
    records = [out, out.rep, next(it for it in items if it.parent),
               node.t, node.f_exp, polygon, polygon.sides[0],
               next(iter(node._analyses.values())), result, result.merged,
               result.moduli[0][1][0]]
    assert {type(r) for r in records} == set(_record_classes())
    assert {ev.level for ev in events} == {1}
    clones = (lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
              copy.deepcopy)
    for clone in clones:
        for r in records:
            c = clone(r)
            assert type(c) is type(r) and _plain(c) == _plain(r)
            if hasattr(r, "to_obj"):
                assert c.to_obj() == r.to_obj()
            with pytest.raises(AttributeError):
                setattr(c, r.__slots__[0], None)
        for ev in events:
            c = clone(ev)
            assert (type(c), c.level, c.factor) == (FactorEvent, 1, ev.factor)


# not monic, degree 1, constant
INVALID = {"nonmonic": (2, 0, 3), "degree1": (5, 1), "constant": (7,)}
CASES = {
    **{f"global_basis-{k}": (global_basis, f) for k, f in INVALID.items()},
    **{f"sfom-{k}": (sfom, f, 35) for k, f in INVALID.items()},
    **{f"om_prime-{k}": (om_prime, f, 5) for k, f in INVALID.items()},
    **{f"sfom-N={N}": (sfom, example1(35), N) for N in (1, 0, -35)},
    "om_prime-p=1": (om_prime, example1(35), 1),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_entry_points_reject_invalid_input(case):
    entry, *args = case
    with pytest.raises(ValueError):
        entry(*args)
