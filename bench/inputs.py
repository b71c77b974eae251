"""Workload inputs: the paper fixtures and the random-field pool.

The fixture polynomials are built exactly as in ``tests/conftest.py``; they
are repeated here so the benchmark does not import the test suite.  The
random fields come from a fixed pool (drawn once by ``make_refs.py`` and
stored with its reference lattices in ``references/random_fields.json``);
the run seed picks, for each draw, the draw itself or its reflection.
"""

from __future__ import annotations

import random

from sfom import intarith as ia

FIXTURE_N = 10007 * 10009
VERIFY_N = 35

# random fields: POOL_PER_DEGREE draws per degree from POOL_SEED, and the
# seed picks each draw or its reflection (see `pick`).  Per-input times are
# heavy-tailed (0.01 s to 0.5 s), so letting the seed pick 2 of 8 draws per
# degree instead moved input_s.p50 and input_s.max by up to 30% between seeds.
RANDOM_DEGREES = range(8, 41)
RANDOM_HEIGHT = 100
POOL_SEED = 2203_01691
POOL_PER_DEGREE = 2


def example1(N):
    """x^4 + 2Nx^2 + N^3(N-1)x + N^2."""
    return ia.ptrim([N * N, N ** 3 * (N - 1), 2 * N, 0, 1])


def example2(p, r, m):
    """(x^2+p)(x^2+2p)...(x^2+rp) + p^m."""
    f = (1,)
    for k in range(1, r + 1):
        f = ia.pmul(f, (k * p, 0, 1))
    return ia.padd(f, (p ** m,))


def example3(r, N):
    """Two-level tower family with slopes 1/2 then 2/3 and r residual roots."""
    a = (1,)
    for k in range(1, r + 1):
        a = ia.pmul(a, (-k, 1))
    acoef = list(a)
    phi = ia.ptrim([N * N * (N - 1), 0, 0, 0, 1])
    f = ia.ppow(phi, 3 * r)
    for k in range(1, r + 1):
        c = acoef[r - k]
        if k % 2 == 1:
            term = ia.pscale(ia.pshift(ia.ppow(phi, 3 * (r - k)), 2),
                             c * N ** (7 * k - 1))
        else:
            term = ia.pscale(ia.ppow(phi, 3 * (r - k)), c * N ** (7 * k))
        f = ia.padd(f, term)
    return f


def refine_fixture(N):
    """((x+N)(x+2N))^2 + N^6(x+N) + N^10, whose run splits a modulus."""
    g2 = ia.pmul((N, 1), (2 * N, 1))
    return ia.padd(ia.padd(ia.pmul(g2, g2), ia.pscale((N, 1), N ** 6)),
                   (N ** 10,))


def tower_fixtures(N: int = FIXTURE_N) -> list[tuple[str, tuple]]:
    """The inputs of `towers` and `full_disc`, in run order."""
    out = [("example1", example1(N))]
    out += [(f"example3_r{r}", example3(r, N)) for r in range(1, 6)]
    out.append(("refine_fixture", refine_fixture(N)))
    return out


def verify_fixtures() -> list[tuple[str, tuple, tuple]]:
    """(name, f, known primes) for the `verify` workload."""
    N = VERIFY_N
    return [
        ("example1", example1(N), (5, 7)),
        ("example2", example2(11, 3, 5), (11,)),
        ("example3_r1", example3(1, N), (5, 7)),
        ("refine_fixture", refine_fixture(N), (5, 7)),
    ]


def has_rational_root(f: tuple) -> bool:
    """Monic f has a rational root iff some divisor of f(0) (or 0) is a root."""
    c0 = abs(f[0])
    if c0 == 0:
        return True
    for d in range(1, c0 + 1):
        if c0 % d == 0 and (ia.peval(f, d) == 0 or ia.peval(f, -d) == 0):
            return True
    return False


def draw_pool() -> dict[int, list[tuple]]:
    """POOL_PER_DEGREE random monic polynomials per degree, from POOL_SEED.

    A draw is replaced only when it has zero discriminant or a rational
    root: the command line answers those with exit 3 (reducible input).
    """
    rng = random.Random(POOL_SEED)
    pool = {}
    for d in RANDOM_DEGREES:
        pool[d] = []
        while len(pool[d]) < POOL_PER_DEGREE:
            f = tuple(rng.randint(-RANDOM_HEIGHT, RANDOM_HEIGHT)
                      for _ in range(d)) + (1,)
            if not has_rational_root(f) and ia.discriminant(f) != 0:
                pool[d].append(f)
    return pool


def reflect(f: tuple) -> tuple:
    """(-1)^n f(-x): the same field and discriminant, generated by -theta."""
    n = ia.pdeg(f)
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(f))


def every_draw() -> list[tuple[int, int, bool]]:
    """(degree, pool index, reflected) for every draw, both ways round."""
    return [(d, k, reflected) for d in RANDOM_DEGREES
            for k in range(POOL_PER_DEGREE) for reflected in (False, True)]


def pick(seed: int) -> list[tuple[int, int, bool]]:
    """(degree, pool index, reflected) for every draw, in run order.

    The seed picks each pool draw or its reflection: every seed sends other
    polynomials, while the fields, and so the work, stay the same.
    """
    rng = random.Random(seed)
    return [(d, k, rng.random() < 0.5) for d in RANDOM_DEGREES
            for k in range(POOL_PER_DEGREE)]
