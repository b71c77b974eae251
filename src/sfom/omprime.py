"""Prime specialization: the classical tree at a single prime p.

Over a prime modulus the tower levels are finite fields, division never
crashes, and the residual polynomials get factored completely instead of
squarefree-decomposed.  The one exception is f mod p itself: its
multiplicity-1 part stays whole, as the composite engine keeps it, because
it becomes one order-0 leaf and the basis reads order-0 leaves only through
their product.  This handles any prime, including p <= deg f: the
squarefree parts come from `AlgebraTower.p_sfd`, which takes p-th roots in
characteristic p; this module adds distinct-degree splitting and randomized
equal-degree splitting (odd characteristic uses the usual half-order
exponent, characteristic 2 the trace map).
"""

from __future__ import annotations

import random

from .sfom import SFOMRep, _drive
from .artinalg import AlgebraTower, PolyA
from .intarith import IntPoly, is_probable_prime, power


def om_prime(f: IntPoly, p: int) -> SFOMRep:
    """Tree for f at the prime p; leaves carry irreducible moduli everywhere
    except the one order-0 leaf, which holds the multiplicity-1 part of
    f mod p."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    rng = random.Random(0)

    def decompose(tower: AlgebraTower, R: PolyA) -> list[tuple[PolyA, int]]:
        # both lists are sorted, so the splitting stream changes no byte
        if R.level:
            return ff_factor(tower, R, rng)
        return _sorted_factors(tower, tower.p_sfd(R), rng, keep=1)

    out = _drive(f, p, decompose, prime=p)
    if out.rep is None:  # pragma: no cover
        raise AssertionError("prime run reported a factor of a prime")
    return out.rep


# ---------------------------------------------------------------------------
# factorization over a tower level that is a finite field


def ff_factor(tower: AlgebraTower, f: PolyA, rng) -> list[tuple[PolyA, int]]:
    """Complete factorization over the finite field at f's level.

    Returns (irreducible monic factor, multiplicity) pairs, sorted by degree
    then coefficient data so the output does not depend on the random choices
    of the equal-degree stage.
    """
    return _sorted_factors(tower, tower.p_sfd(f), rng)


def _sorted_factors(tower: AlgebraTower, parts: list[tuple[PolyA, int]], rng,
                    keep: int = 0) -> list[tuple[PolyA, int]]:
    """Split the squarefree parts into irreducibles, except the part of
    multiplicity `keep` (0: none), then sort the whole list once."""
    out = [(irr, mult) for sqf, mult in parts
           for irr in ([sqf] if mult == keep
                       else _factor_squarefree(tower, sqf, rng))]
    out.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return out


def _poly_powmod(tower: AlgebraTower, base: PolyA, exp: int, mod: PolyA) -> PolyA:
    def mulmod(a, b):
        return tower.p_divmod_monic(tower.p_mul(a, b), mod)[1]
    return power(tower.p_divmod_monic(base, mod)[1], exp, mulmod,
                 tower.p_one(base.level))


def _factor_squarefree(tower: AlgebraTower, f: PolyA, rng) -> list[PolyA]:
    """Distinct-degree then equal-degree splitting of a squarefree monic f."""
    L = f.level
    q = tower.N ** tower.sizes[L]  # the field size
    out: list[PolyA] = []
    h = tower.p_y(L)
    d = 0
    rest = f
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            out.append(rest)
            break
        h = _poly_powmod(tower, h, q, rest)
        g = tower.p_gcd(tower.p_sub(h, tower.p_y(L)), rest)
        if g.degree() > 0:
            out.extend(_equal_degree(tower, g, d, rng))
            rest = tower.p_exact_divide(rest, g)
            _, h = tower.p_divmod_monic(h, rest)
    return out


def _random_poly(tower: AlgebraTower, L: int, deg: int, rng) -> PolyA:
    n = tower.sizes[L]
    return tower.p_trim(L, [tuple(rng.randrange(tower.N) for _ in range(n))
                            for _ in range(deg + 1)])


def _equal_degree(tower: AlgebraTower, g: PolyA, d: int, rng) -> list[PolyA]:
    """Split a product of distinct irreducibles of the same degree d."""
    L = g.level
    if g.degree() == d:
        return [g]
    q = tower.N ** tower.sizes[L]  # the field size
    p = tower.N
    while True:
        r = _random_poly(tower, L, g.degree() - 1, rng)
        if not r.coeffs:
            continue
        if p == 2:
            m = (q.bit_length() - 1) * d  # q = 2^k: trace over GF(2) of GF(q^d)
            s = r
            acc = r
            for _ in range(m - 1):
                _, s = tower.p_divmod_monic(tower.p_mul(s, s), g)
                acc = tower.p_add(acc, s)
            if not acc.coeffs:
                continue
            split = tower.p_gcd(acc, g)
        else:
            s = _poly_powmod(tower, r, (q ** d - 1) // 2, g)
            split = tower.p_gcd(tower.p_sub(s, tower.p_one(L)), g)
        if 0 < split.degree() < g.degree():
            rest = tower.p_exact_divide(g, split)
            return _equal_degree(tower, split, d, rng) + _equal_degree(
                tower, rest, d, rng)
