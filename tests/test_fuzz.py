"""Seeded fuzz of the CLI and of `global_basis` on small random inputs.

Inputs are monic of degree 2-8 with coefficients of height 10 to 10^12; in a
third of them every lower coefficient is multiplied by p^a for a prime p of
the modulus, which makes f ramified at p.  Moduli are products of one or two
primes in (deg f, 1000), sometimes times the square of one of them below 32:
every square factor stays below 1000, the trial-division bound of
`int_sfd`, above which the composite engine assumes N squarefree.
"""

import math
import random

from conftest import is_irreducible_over_z
from sfom import cli
from sfom import intarith as ia
from sfom.basis import global_basis
from sfom.sfom import ReducibleInput
from sfom.validate import p_maximal

PRIMES = [p for p in range(3, 1000) if all(p % d for d in range(2, p))]


def _draw(rng):
    """(f, the primes of N, N) as the module docstring describes."""
    n = rng.randrange(2, 9)
    height = 10 ** rng.randrange(1, 13)
    f = [rng.randrange(-height, height + 1) for _ in range(n)] + [1]
    primes = rng.sample([p for p in PRIMES if p > n], rng.randrange(1, 3))
    N = math.prod(primes)
    small = [p for p in primes if p * p < 1000]
    if small and rng.randrange(4) == 0:
        N *= rng.choice(small) ** 2
    if rng.randrange(3) == 0:
        pa = rng.choice(primes) ** rng.randrange(1, 4)
        f = [c * pa for c in f[:-1]] + [1]
    return tuple(f), sorted(primes), N


def _argv(rng, f, primes, N):
    # argparse takes a value that starts with "-" and a digit but is no
    # number for an option, so a negative f(0) needs --poly=
    poly = "--poly=" + ",".join(map(str, f))
    return rng.choice([
        ["basis", poly],
        ["basis", poly, "--disc", str(N)],
        ["tree", poly, "--modulus", str(N)],
        ["polygon", poly, "--modulus", str(N),
         "--level", str(rng.randrange(1, 4))],
        ["verify", poly],
        ["verify", poly, "--known-primes", ",".join(map(str, primes))],
        ["verify", poly, "--disc", str(N)],
    ])


def test_cli_exits_with_a_documented_code(capsys):
    # every call exits 0, 2 or 3 (verify also 1, a failed check), with no
    # exception escaping `main`, and stderr is one line exactly when the
    # exit is 2 or 3
    rng = random.Random(2803)
    codes = {}
    for _ in range(300):
        argv = _argv(rng, *_draw(rng))
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), (
            argv, err)
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", (argv, err)
        codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
    assert {("basis", 0), ("tree", 0), ("polygon", 0), ("verify", 0),
            ("polygon", 2)} <= set(codes), codes


def test_global_basis_is_maximal_at_every_prime_of_n():
    # a reducible f may surface as ReducibleInput, with a true factor or
    # none; an f certified irreducible gives an order maximal at every
    # prime of N
    rng = random.Random(2804)
    checks = 0
    for _ in range(120):
        f, primes, N = _draw(rng)
        try:
            result = global_basis(f, N)
        except ReducibleInput as exc:
            assert exc.factor is None or not ia.pdivmod_monic(
                f, exc.factor)[1], (f, N, exc.factor)
            continue
        if is_irreducible_over_z(f):
            for p in primes:
                assert p_maximal(result.merged, f, p), (f, N, p)
                checks += 1
    assert checks >= 150, checks
