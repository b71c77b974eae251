import random
from itertools import product

import pytest

from conftest import (example1, example2, from_elements, hnf_merge,
                      om_prime_complete, p_pow, poly_ints)
from sfom import intarith as ia
from sfom.artinalg import AlgebraTower
from sfom.basis import n_integral_basis
from sfom.omprime import ff_factor, om_prime
from sfom.sfom import ReducibleInput, _drive, sfom


def test_ff_factor_examples(rng):
    T5 = AlgebraTower(5)
    fac = ff_factor(T5, T5.p_from_int_poly((1, 0, 1)), rng)
    assert [(poly_ints(g), m) for g, m in fac] == [([2, 1], 1), ([3, 1], 1)]
    T3 = AlgebraTower(3)
    fac = ff_factor(T3, T3.p_from_int_poly((1, 0, 1)), rng)
    assert len(fac) == 1 and fac[0][0].degree() == 2 and fac[0][1] == 1
    T2 = AlgebraTower(2)
    fac = ff_factor(T2, T2.p_from_int_poly((0, 0, 0, 0, 1)), rng)
    assert [(poly_ints(g), m) for g, m in fac] == [([0, 1], 4)]


def _brute_factor(p, f):
    """Complete factorization over F_p by trial division (oracle)."""
    def divmod_p(f, g):
        f = list(f)
        dg = len(g) - 1
        quo = [0] * max(len(f) - dg, 0)
        for i in range(len(f) - 1 - dg, -1, -1):
            c = f[i + dg] % p
            quo[i] = c
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
        rem = [c % p for c in f[:dg]]
        while rem and rem[-1] == 0:
            rem.pop()
        while quo and quo[-1] == 0:
            quo.pop()
        return tuple(quo), tuple(rem)

    out = {}
    rem = tuple(f)
    d = 1
    while len(rem) - 1 >= 1:
        if len(rem) - 1 < 2 * d:
            out[rem] = out.get(rem, 0) + 1
            break
        found = False
        for tail in product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            q, r = divmod_p(rem, g)
            if not r:
                out[g] = out.get(g, 0) + 1
                rem = q
                found = True
                break
        if not found:
            d += 1
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ff_factor_against_bruteforce(p, rng):
    Tp = AlgebraTower(p)
    for _ in range(50):
        deg = rng.randrange(1, 7)
        f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
        mine = {tuple(poly_ints(g)): m
                for g, m in ff_factor(Tp, Tp.p_from_int_poly(f), rng)}
        assert mine == _brute_factor(p, f)
        prod_poly = Tp.p_one(0)
        for g, m in ff_factor(Tp, Tp.p_from_int_poly(f), rng):
            prod_poly = Tp.p_mul(prod_poly, p_pow(Tp, g, m))
        assert prod_poly == Tp.p_from_int_poly(f)


def test_ff_factor_extension_field(rng):
    # F_25 = F_5[z]/(z^2+2); y^2 + 2 splits there as (y - z)(y + z)
    T5 = AlgebraTower(5)
    T25 = T5.extend(T5.p_from_int_poly((2, 0, 1)))
    f = T25.p_trim(1, (T25.embed_int(2, 1), T25.zero(1), T25.one(1)))
    fac = ff_factor(T25, f, rng)
    assert len(fac) == 2 and all(g.degree() == 1 and m == 1 for g, m in fac)
    assert T25.p_mul(fac[0][0], fac[1][0]) == f
    # char-2 extension: F_4 = F_2[z]/(z^2+z+1)
    T2 = AlgebraTower(2)
    T4 = T2.extend(T2.p_from_int_poly((1, 1, 1)))
    z = T4.z(1)
    f = T4.p_trim(1, (z, T4.one(1), T4.one(1)))  # y^2 + y + z
    fac = ff_factor(T4, f, rng)
    prod_poly = T4.p_one(1)
    for g, m in fac:
        prod_poly = T4.p_mul(prod_poly, p_pow(T4, g, m))
    assert prod_poly == f


def test_ff_sfd_char_p_powers(rng):
    # (y+1)^4 (y+2)^2 over F_2 exercises the p-th-root path
    T2 = AlgebraTower(2)
    f = p_pow(T2, T2.p_from_int_poly((1, 1)), 4)
    f = T2.p_mul(f, p_pow(T2, T2.p_from_int_poly((0, 1)), 2))
    out = [(poly_ints(g), m) for g, m in T2.p_sfd(f)]
    assert sorted(out, key=lambda t: t[1]) == [([0, 1], 2), ([1, 1], 4)]


def test_om_prime_wild_prime():
    rep = om_prime((1, 0, 1), 2)
    assert rep.prime == 2
    assert len(rep.leaves) == 1
    leaf = rep.leaves[0]
    assert leaf.order == 1 and (leaf.h, leaf.e) == (1, 2)
    assert leaf.g == (1, 1)
    assert leaf.e_prod() == 2 and leaf.f_prod() == 1
    assert poly_ints(leaf.trunc(0).t) == [1, 1]


@pytest.mark.parametrize("f, p", [
    ((1, 0, 1), 35),  # x^2+1 splits mod 5: one leaf would claim it irreducible
    (example1(35), 21),
    (example1(35), 4),
])
def test_om_prime_rejects_a_composite_prime(f, p):
    with pytest.raises(ValueError, match="not prime"):
        om_prime(f, p)


def test_om_prime_example2():
    f = example2(11, 3, 5)
    rep = om_prime(f, 11)
    assert len(rep.leaves) == 3
    for leaf in rep.leaves:
        assert leaf.order == 1 and (leaf.h, leaf.e) == (1, 2)
        assert leaf.e_prod() == 2 and leaf.f_prod() == 1


def test_om_prime_squarefree_reduction():
    rep = om_prime((1, 0, 1), 7)
    assert len(rep.leaves) == 1 and rep.leaves[0].order == 0
    rep = om_prime((1, 1, 1, 1), 5)  # hypothetical reducible-over-Q input still runs
    assert sum(l.e_prod() * l.f_prod() for l in rep.leaves) == 3


def test_om_prime_matches_composite_run_at_large_prime(rng):
    # identical local lattices from both engines at a prime above the degree
    fixtures = [
        ((4, 0, 1), 13),          # x^2 + 4
        ((9, 1, 0, 1), 11),       # x^3 + x + 9
        (example2(11, 2, 3), 11),
        ((121, 22, 1, 1), 11),
    ]
    for f, p in fixtures:
        f = ia.ptrim(f)
        rep_p = om_prime(f, p)
        out = sfom(f, p)
        assert out.n_factor is None
        lat_p = from_elements(n_integral_basis(rep_p, f, p), f, p)
        lat_c = from_elements(n_integral_basis(out.rep, f, p), f, p)
        # canonical comparison: saturate away from p with the power basis
        assert hnf_merge([lat_p], f) == hnf_merge([lat_c], f)


def test_om_prime_deterministic_across_seeds():
    # the splitting stream cannot reach the tree: ff_factor sorts its factors
    import functools
    import json
    f = example2(11, 3, 5)
    a = json.dumps(om_prime(f, 11).to_obj())
    other = functools.partial(ff_factor, rng=random.Random(12345))
    b = json.dumps(_drive(f, 11, other, prime=11).rep.to_obj())
    assert a == b


def test_om_prime_certifies_a_factor_of_a_reducible_input():
    # x^6+1 = (x^2+1)^3 mod 3, and the representative x^2+1 divides x^6+1
    # over Z: the expansion has no constant term, so no polygon can cover it
    with pytest.raises(ReducibleInput) as exc:
        om_prime((1, 0, 0, 0, 0, 0, 1), 3)
    assert exc.value.factor == (1, 0, 1)


# a `random_fields` pool draw: mod 2 its root has parts of multiplicities 3
# and 6 whose degree-then-coefficient order is not their multiplicity order;
# mod 3, 5 and 7 it is squarefree with two irreducible factors
POOL_DRAW = (-64, -16, 0, -76, 40, 40, 11, -55, -71, 1)


def _reflect(f):
    n = len(f) - 1
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(f))


def _seeded_fields():
    """g1^k1 * g2^k2 * c + p*h, with g1, g2 linear or quadratic and c monic
    of degree 0-2, so f mod p often has parts of two multiplicities."""
    rng = random.Random(21)
    out = [POOL_DRAW, _reflect(POOL_DRAW)]
    for _ in range(30):
        f = (1,)
        for k in (rng.randint(2, 3), rng.randint(2, 3), 1):
            g = tuple(rng.randint(-4, 4) for _ in range(rng.randint(
                0 if k == 1 else 1, 2))) + (1,)
            f = ia.pmul(f, ia.ppow(g, k))
        p = rng.choice((2, 3, 5, 7))
        h = tuple(rng.randint(-3, 3) for _ in range(ia.pdeg(f)))
        out.append(ia.padd(f, ia.pscale(h, p)))
    return out


def _prime_trees():
    """(f, p, om_prime tree, the root's complete factorization) for every
    seeded field at p in {2, 3, 5, 7}, reducible inputs left out."""
    out = []
    for f in _seeded_fields():
        for p in (2, 3, 5, 7):
            try:
                rep = om_prime(f, p)
            except ReducibleInput:
                continue
            T = AlgebraTower(p)
            out.append((f, p, rep,
                        ff_factor(T, T.p_from_int_poly(f), random.Random(0))))
    return out


def test_om_prime_basis_matches_a_complete_factorization():
    # the root keeps its multiplicity-1 part whole; the basis reads order-0
    # leaves only through their product and the sides keep their order, so
    # the local basis equals the one of a completely factored root
    seen = {"merged": 0, "two_multiplicities": 0}
    for f, p, rep, root in _prime_trees():
        want = n_integral_basis(om_prime_complete(f, p), f, p)
        assert n_integral_basis(rep, f, p) == want, (f, p)
        seen["merged"] += sum(m == 1 for _, m in root) >= 2
        seen["two_multiplicities"] += len({m for _, m in root if m > 1}) >= 2
    assert seen["merged"] >= 50 and seen["two_multiplicities"] >= 15, seen


def test_om_prime_keeps_the_multiplicity_one_part_whole():
    for f, p, rep, _ in _prime_trees():
        T = AlgebraTower(p)
        simple = [s for s, m in T.p_sfd(T.p_from_int_poly(f)) if m == 1]
        zero = [leaf.t for leaf in rep.leaves if leaf.order == 0]
        assert zero == simple, (f, p)
