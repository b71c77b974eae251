import math
import random

import pytest

from sfom import intarith as ia
from conftest import example1, is_probable_prime, sylvester_resultant


def test_ord_n_examples():
    assert ia.ord_n(1225, 35) == (2, 1)
    assert ia.ord_n(70, 35) == (1, 2)
    assert ia.ord_n(34 * 35 ** 3, 35) == (3, 34)


def test_ord_n_superadditive(rng):
    for _ in range(200):
        N = rng.choice([6, 12, 35, 36, 100])
        a = rng.randrange(1, 10 ** 6)
        b = rng.randrange(1, 10 ** 6)
        ka, ca = ia.ord_n(a, N)
        kb, _ = ia.ord_n(b, N)
        kab, _ = ia.ord_n(a * b, N)
        assert kab >= ka + kb
        if math.gcd(ca, N) == 1:
            # stable cofactor: equality
            assert kab == ia.ord_n(b, N)[0] + ka


def test_coprime_splitting_examples():
    assert set(ia.coprime_splitting(12, 360)) == {2, 3, 5}
    assert set(ia.coprime_splitting(5, 35)) == {5, 7}
    assert set(ia.coprime_splitting(4, 16)) == {2}


def test_coprime_splitting_properties(rng):
    for _ in range(100):
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randrange(2, 5))
        N = 1
        exps = {}
        for p in primes:
            exps[p] = rng.randrange(1, 4)
            N *= p ** exps[p]
        d = 1
        while d in (1, N):
            d = 1
            for p in primes:
                d *= p ** rng.randrange(0, exps[p] + 1)
        out = ia.coprime_splitting(d, N)
        for i, a in enumerate(out):
            assert a > 1 and N % a == 0
            assert ia.perfect_power(a)[1] == 1
            for b in out[i + 1:]:
                assert math.gcd(a, b) == 1
        # every prime of N divides exactly one output entry
        for p in primes:
            assert sum(1 for a in out if a % p == 0) == 1


def test_int_sfd_examples():
    assert ia.int_sfd(360) == [(5, 1), (3, 2), (2, 3)]
    assert ia.int_sfd(35) == [(35, 1)]
    assert ia.int_sfd(49) == [(7, 2)]


def test_int_sfd_hard_semiprime_passthrough():
    # no gcd ever exposes the factors, so the input comes back unsplit
    assert ia.int_sfd(10007 * 10009) == [(10007 * 10009, 1)]


def test_int_sfd_recombines(rng):
    for _ in range(100):
        N = rng.randrange(2, 10 ** 6)
        out = ia.int_sfd(N)
        prod = 1
        exps = [e for _, e in out]
        assert exps == sorted(set(exps))
        for i, (d, e) in enumerate(out):
            prod *= d ** e
            for d2, _ in out[i + 1:]:
                assert math.gcd(d, d2) == 1
        assert prod == N


def test_perfect_power_and_iroot():
    assert ia.perfect_power(1024) == (2, 10)
    assert ia.perfect_power(6 ** 4) == (6, 4)
    assert ia.perfect_power(35) == (35, 1)
    assert ia.iroot(10 ** 18 + 5, 2) == 10 ** 9
    assert ia.iroot(3 ** 30 - 1, 30) == 2


def _perfect_power_descending(n):
    # every exponent from the bit length down; the first hit is maximal
    for k in range(n.bit_length(), 1, -1):
        b = ia.iroot(n, k)
        if b ** k == n:
            return b, k
    return n, 1


def test_perfect_power_matches_the_descending_search():
    for n in range(2, 2 ** 14):
        assert ia.perfect_power(n) == _perfect_power_descending(n), n
    N = 10007 * 10009
    for b, k in [(6, 35), (N, 7), (2, 60), (12, 30), (N, 1), (3 * N, 12),
                 (10 ** 20 + 39, 9)]:
        assert ia.perfect_power(b ** k) == (b, k)
        assert _perfect_power_descending(b ** k) == (b, k)


def test_xgcd_bezout(rng):
    for _ in range(500):
        a, b = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
        if rng.random() < 0.1:
            a = 0
        d, u, v = ia.xgcd(a, b)
        assert d == math.gcd(a, b) and u * a + v * b == d


def test_resultant_examples():
    assert ia.resultant((1, 0, 1), (0, 2)) == 4
    a, b = 17, 5
    assert ia.resultant((-a, 1), (-b, 1)) == a - b


def test_discriminant_example1_valuation():
    N = 35
    f = example1(N)
    D = ia.discriminant(f)
    assert D == -N ** 9 * (N - 1) ** 2 * (27 * N ** 5 - 54 * N ** 4
                                          + 27 * N ** 3 - 256)
    assert ia.ord_n(D, 35)[0] == 9


def test_resultant_against_sylvester(rng):
    for _ in range(150):
        f = ia.ptrim([rng.randrange(-40, 41) for _ in range(rng.randrange(1, 8))])
        g = ia.ptrim([rng.randrange(-40, 41) for _ in range(rng.randrange(1, 8))])
        if not f or not g:
            continue
        assert ia.resultant(f, g) == sylvester_resultant(list(f), list(g))


def test_resultant_on_defective_common_factor_and_constant_pairs(rng):
    def poly(d):
        lead = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        return tuple(rng.randrange(-9, 10) for _ in range(d)) + (lead,)

    for _ in range(40):
        # A = Q*B + C with deg C <= deg B - 2: the second step has delta > 1
        B = poly(rng.randrange(3, 7))
        C = poly(rng.randrange(0, ia.pdeg(B) - 1))
        A = ia.padd(ia.pmul(poly(rng.randrange(1, 4)), B), C)
        assert ia.pdeg(A) > ia.pdeg(B) > ia.pdeg(C) + 1
        H = poly(rng.randrange(1, 3))
        F, G = ia.pmul(H, poly(rng.randrange(0, 4))), ia.pmul(H, poly(2))
        assert ia.resultant(F, G) == 0 == sylvester_resultant(list(F), list(G))
        pairs = [(A, B), (B, A), (A, C), (poly(0), poly(rng.randrange(0, 5))),
                 (poly(rng.randrange(1, 5)), poly(0))]
        for f, g in pairs:
            assert ia.resultant(f, g) == sylvester_resultant(list(f), list(g))


def test_poly_division_roundtrip(rng):
    for _ in range(100):
        g = ia.ptrim([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))]
                     + [1])
        f = ia.ptrim([rng.randrange(-99, 100) for _ in range(rng.randrange(0, 9))])
        q, r = ia.pdivmod_monic(f, g)
        assert ia.padd(ia.pmul(q, g), r) == f
        assert ia.pdeg(r) < ia.pdeg(g)


def test_is_probable_prime_against_the_test_oracle():
    for n in range(-2, 10 ** 4):
        assert ia.is_probable_prime(n) == is_probable_prime(n), n
    primes = [2 ** 61 - 1, 2 ** 89 - 1, 10007, 10009, 2147483647,
              10 ** 18 + 9, 10 ** 24 + 7]
    # Carmichael numbers, strong pseudoprimes to the bases 2..7 and 2..11,
    # and products of two primes
    composites = [561, 1105, 1729, 2465, 41041, 825265, 321197185,
                  3215031751, 2152302898747, 10007 * 10009,
                  (2 ** 61 - 1) * (2 ** 89 - 1)]
    for n in primes + composites:
        assert ia.is_probable_prime(n) == is_probable_prime(n) == (n in primes)
