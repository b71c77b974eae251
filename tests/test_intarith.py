import collections
import math
import random

import pytest

from sfom import intarith as ia
from conftest import (coprime_base_reference, example1, is_probable_prime,
                      sylvester_resultant)


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


def _factor_refinement_reference(nums):
    """Gcd-free basis with exponents, prod b^e = prod(nums): the loop of
    `coprime_base` with each piece's exponent carried along."""
    stack = [(n, 1) for n in nums if n > 1]
    basis = []
    while stack:
        n, e = stack.pop()
        if n == 1:
            continue
        for i, (b, be) in enumerate(basis):
            g = math.gcd(n, b)
            if g == 1:
                continue
            basis.pop(i)
            stack.extend([(g, e + be), (n // g, e), (b // g, be)])
            break
        else:
            basis.append((n, e))
    merged = {}
    for b, e in basis:
        merged[b] = merged.get(b, 0) + e
    return sorted(merged.items())


def test_coprime_splitting_matches_factor_refinement(rng):
    pool = [2, 3, 5, 7, 11, 13, 10007]
    cases = mersenne = 0
    for trial in range(2700):
        # one case in three also draws the Mersenne prime 2^61 - 1
        primes = pool + [2 ** 61 - 1] if trial % 3 == 0 else pool
        exps = {p: rng.randint(1, 4)
                for p in rng.sample(primes, rng.randint(1, 4))}
        N = math.prod(p ** e for p, e in exps.items())
        d = math.prod(p ** rng.randint(0, e) for p, e in exps.items())
        if not 1 < d < N:
            continue
        reference = _factor_refinement_reference([d, N])
        base = {b for b, _ in reference}
        assert math.prod(b ** e for b, e in reference) == d * N
        assert ia.coprime_base([d, N]) == base, (d, N)
        assert ia.coprime_splitting(d, N) == sorted(
            {ia.perfect_power(b)[0] for b in base}), (d, N)
        cases += 1
        mersenne += N % (2 ** 61 - 1) == 0
    assert cases >= 2000 and mersenne >= 150


def test_coprime_base_matches_the_gcd_at_a_time_reference():
    # a hit g splits off g's whole power from both numbers at once; the base
    # is the one that splitting off one g per round gives, on N = prod p^k
    # (k <= 40) with d | N, and on N = d^k m (k <= 200) with m sharing
    # primes with d or not
    rng = random.Random(30)
    pool = [2, 3, 5, 7, 11, 13, 10007, 10009, 2 ** 31 - 1, 2 ** 61 - 1]
    cases = collections.Counter()
    for trial in range(600):
        exps = {p: rng.randint(1, 40 if trial % 2 else 3)
                for p in rng.sample(pool, rng.randint(1, 4))}
        d = math.prod(p ** rng.randint(0, e) for p, e in exps.items())
        if trial % 2:
            N = math.prod(p ** e for p, e in exps.items())
        else:
            k = rng.randint(1, 200)
            N = d ** k * math.prod(rng.sample(pool, rng.randint(0, 3)))
        if not 1 < d < N:
            continue
        base = coprime_base_reference([d, N])
        assert ia.coprime_base([d, N]) == base, (d, N)
        assert ia.coprime_splitting(d, N) == sorted(
            {ia.perfect_power(b)[0] for b in base}), (d, N)
        cases[trial % 2, len(base) > 1] += 1
    assert min(cases.values()) >= 40 and len(cases) == 4, cases


def test_int_sfd_examples():
    assert ia.int_sfd(360) == [(5, 1), (3, 2), (2, 3)]
    assert ia.int_sfd(35) == [(35, 1)]
    assert ia.int_sfd(49) == [(7, 2)]


def test_int_sfd_groups_coprime_pieces_by_exponent():
    # repeated small prime powers times the square of a hard semiprime, and
    # of a prime above the trial-division bound
    M = 10007 * 10009
    assert ia.int_sfd(2 ** 3 * 3 ** 2 * 5 ** 3 * M ** 2) == [(3 * M, 2),
                                                             (10, 3)]
    assert ia.int_sfd(7 ** 4 * 11 * 1009 ** 2) == [(11, 1), (1009, 2),
                                                   (7, 4)]
    assert ia.int_sfd(2 ** 5 * 3 ** 5 * M ** 5) == [(6 * M, 5)]


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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 64, 255, 1000, 4097])
def test_power_makes_the_fewest_products(k):
    # square-and-multiply from the first factor: bit_length(k) - 1 squarings
    # and popcount(k) - 1 further products, and `one` only comes back for 0
    one = object()
    calls = []

    def add(a, b):
        assert a is not one and b is not one
        calls.append((a, b))
        return a + b

    got = ia.power(3, k, add, one)
    assert got is one if k == 0 else got == 3 * k
    want = 0 if k == 0 else k.bit_length() - 1 + bin(k).count("1") - 1
    assert len(calls) == want


def test_perfect_power_and_iroot():
    assert ia.perfect_power(1024) == (2, 10)
    assert ia.perfect_power(6 ** 4) == (6, 4)
    assert ia.perfect_power(35) == (35, 1)
    assert ia.iroot(10 ** 18 + 5, 2) == 10 ** 9
    assert ia.iroot(3 ** 30 - 1, 30) == 2


def _iroot_from_a_power_of_two(n, k):
    # Newton from 2^ceil(bits/k): a reference that shares neither iroot's
    # bit-by-bit short roots nor its start from the root of the top bits
    if n < 2 or k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def test_iroot_matches_newton_from_a_power_of_two():
    # random n up to 10^4 bits and k up to 200, with the perfect powers
    # b^k and b^k +- 1 on both sides of every root
    rng = random.Random(18)
    for _ in range(300):
        k = rng.choice([2, 3, rng.randint(2, 30), rng.randint(2, 200)])
        n = rng.getrandbits(rng.randint(1, 10 ** 4))
        b = _iroot_from_a_power_of_two(n, k)
        for m in (n, b ** k - 1, b ** k, b ** k + 1, (b + 1) ** k - 1,
                  (b + 1) ** k):
            if m >= 0:
                r = ia.iroot(m, k)
                assert r == _iroot_from_a_power_of_two(m, k)
                assert r ** k <= m < (r + 1) ** k
    for k in (1, 2, 3, 64, 199, 200):
        for m in range(70):
            r = ia.iroot(m, k)
            assert r == _iroot_from_a_power_of_two(m, k)
            assert r ** k <= m < (r + 1) ** k


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


_PRIMES_BELOW_100 = [k for k in range(2, 100) if is_probable_prime(k)]


@pytest.mark.parametrize("b", [2, 3, 1009, 2 ** 61 - 1])
def test_sieved_perfect_power_on_prime_powers_and_neighbours(b):
    # b^k is (b, k); by Mihailescu's theorem b^k +- 1 is no power but for
    # 3^2 - 1 = 2^3 and 2^3 + 1 = 3^2.  The descending search agrees below
    # 2^1024 (it tries every exponent up to the bit length: ~3 s for all).
    # iroot takes every prime root of them, up to 5,917 bits
    for k in _PRIMES_BELOW_100:
        for n, want in [(b ** k, (b, k)), (b ** k + 1, (b ** k + 1, 1)),
                        (b ** k - 1, (b ** k - 1, 1))]:
            want = {8: (2, 3), 9: (3, 2)}.get(n, want)
            if n < 2:
                continue
            assert ia.iroot(n, k) == (b - 1 if n < b ** k else b)
            for j in _PRIMES_BELOW_100:
                r = ia.iroot(n, j)
                assert r ** j <= n < (r + 1) ** j, (b, k, n, j)
            assert ia.perfect_power(n) == want, (b, k, n)
            if n.bit_length() <= 1024:
                assert _perfect_power_descending(n) == want, (b, k, n)


def test_sieved_perfect_power_when_a_sieve_prime_divides_n():
    # n mod q = 0 is a k-th power residue: the root must still be tried
    for k in _PRIMES_BELOW_100[:8]:
        for q, _ in ia._sieve(k):
            for n in [(q * 5) ** k, q ** k, q * 7 ** k, (q * 2) ** (2 * k)]:
                assert ia.perfect_power(n) == _perfect_power_descending(n), n


def _divmod_monic_reference(f, g):
    rem, quo, dg = list(f), [0] * max(len(f) - len(g) + 1, 0), len(g) - 1
    for i in reversed(range(len(quo))):
        quo[i] = rem[i + dg]
        for j, c in enumerate(g):
            rem[i + j] -= quo[i] * c
    return ia.ptrim(quo), ia.ptrim(rem[:dg])


def test_synthetic_division_by_a_linear_base(rng):
    for _ in range(300):
        f = ia.ptrim([rng.choice([0, 0, rng.randint(-10 ** 30, 10 ** 30)])
                      for _ in range(rng.randrange(0, 12))])
        g = (rng.choice([0, 1, -1, rng.randint(-10 ** 6, 10 ** 6)]), 1)
        assert ia.pdivmod_monic(f, g) == _divmod_monic_reference(f, g), (f, g)


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
