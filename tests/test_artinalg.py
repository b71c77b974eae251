import math
import random

import pytest

from conftest import (_next_prime, fp_divmod, fp_gcd, fp_mul, fp_sfd,
                      fp_trim, p_divmod_reference, p_gcd_reference,
                      p_mul_reference, p_pow, p_quotrem, p_sfd_reference,
                      poly_ints, strongly_unitary_reference)
from sfom import intarith as ia
from sfom.artinalg import AlgebraTower, FactorEvent, NonExactDivision, PolyA


@pytest.fixture
def T():
    return AlgebraTower(35)


def P(T, *coeffs):
    return T.p_from_int_poly(tuple(coeffs))


def test_extend_examples(T):
    T1 = T.extend(P(T, 1, 1))
    assert T1.dims == (1,)
    assert T1.z(1) == T1.embed_int(34, 1)
    T2 = T.extend(P(T, 1, 0, 1))
    assert T2.e_mul(T2.z(1), T2.z(1)) == T2.embed_int(-1, 1)
    with pytest.raises(FactorEvent) as exc:
        T.extend(P(T, 1, 5))
    assert (exc.value.level, exc.value.factor) == (-1, 5)


def test_elem_arithmetic(T):
    T1 = T.extend(P(T, 1, 1))
    z = T1.z(1)
    assert T1.e_mul(z, z) == T1.one(1)
    T2 = T.extend(P(T, 1, 0, 1))
    z = T2.z(1)
    assert T2.e_mul(z, z) == T2.embed_int(34, 1)
    a = T.embed_int(17, 0)
    assert T.e_add(T.zero(0), a) == a


def test_invert_examples(T):
    T1 = T.extend(P(T, 1, 1))
    assert T1.e_invert(T1.z(1)) == T1.embed_int(34, 1)
    assert T.e_invert(T.embed_int(2, 0)) == T.embed_int(18, 0)
    with pytest.raises(FactorEvent) as exc:
        T.e_invert(T.embed_int(5, 0))
    assert (exc.value.level, exc.value.factor) == (-1, 5)


def test_quotrem_examples(T):
    q, r = p_quotrem(T, P(T, -1, 0, 1), P(T, -1, 1))
    assert q == P(T, 1, 1) and not r.coeffs
    q, r = p_quotrem(T, P(T, 0, 0, 1), P(T, 1, 1))
    assert q == P(T, -1, 1) and r == P(T, 1)
    with pytest.raises(FactorEvent) as exc:
        p_quotrem(T, P(T, 0, 0, 0, 1), P(T, 1, 5))
    assert (exc.value.level, exc.value.factor) == (-1, 5)


def test_quotrem_ideal_identity(T, rng):
    # s = t q + r with deg r < deg t, for random unitary t
    for _ in range(50):
        t = T.p_from_int_poly(
            tuple(rng.randrange(35) for _ in range(rng.randrange(1, 4)))
            + (rng.choice([1, 2, 3, 4, 6, 8, 9, 11]),))
        s = T.p_from_int_poly(tuple(rng.randrange(35) for _ in range(6)))
        q, r = p_quotrem(T, s, t)
        assert T.p_add(T.p_mul(t, q), r) == s
        assert r.degree() < t.degree()


def test_gcd_examples(T):
    assert T.p_gcd(P(T, -1, 0, 1), P(T, -1, 1)) == P(T, -1, 1)
    f = T.p_from_int_poly(ia.pmul((-1, 1), (-6, 1)))
    with pytest.raises(FactorEvent) as exc:
        T.p_gcd(f, P(T, -7, 2))
    assert exc.value.level == -1 and exc.value.factor in (5, 7)
    assert T.p_gcd(T.p_zero(0), P(T, -1, 2)) == T.p_make_monic(P(T, -1, 2))


def test_xgcd_examples(T):
    d, u, v = T.p_xgcd(P(T, 1, 1), P(T, 0, 1))
    assert T.p_is_one(d)
    assert T.p_add(T.p_mul(P(T, 1, 1), u), T.p_mul(P(T, 0, 1), v)) == d
    d, u, v = T.p_xgcd(P(T, 0, 0, 1), P(T, 0, 1))
    assert d == P(T, 0, 1)
    with pytest.raises(FactorEvent) as exc:
        T.p_xgcd(P(T, 0, 1), P(T, 0, 7))
    assert (exc.value.level, exc.value.factor) == (-1, 7)


def test_xgcd_bezout_random(T, rng):
    for _ in range(60):
        s = T.p_from_int_poly(tuple(rng.randrange(35) for _ in range(4)))
        t = T.p_from_int_poly(
            tuple(rng.randrange(35) for _ in range(3)) + (1,))
        try:
            d, u, v = T.p_xgcd(s, t)
        except FactorEvent as ev:
            if ev.level == -1:
                assert 1 < ev.factor < 35 and 35 % ev.factor == 0
            continue
        assert T.p_add(T.p_mul(s, u), T.p_mul(t, v)) == d


def test_sfd_examples(T):
    f = T.p_from_int_poly(ia.pmul(ia.pmul((1, 1), (1, 1)), (2, 1)))
    out = T.p_sfd(f)
    assert [(poly_ints(s), l) for s, l in out] == [([2, 1], 1), ([1, 1], 2)]
    out = T.p_sfd(P(T, 0, 0, 0, 0, 1))
    assert [(poly_ints(s), l) for s, l in out] == [([0, 1], 4)]
    with pytest.raises(FactorEvent) as exc:
        T.p_sfd(T.p_from_int_poly(ia.pmul((-1, 1), (-6, 1))))
    assert exc.value.level == -1 and exc.value.factor in (5, 7)


def test_exact_divide_examples(T):
    assert T.p_exact_divide(
        T.p_from_int_poly(ia.pmul((1, 1), (2, 1))), P(T, 1, 1)) == P(T, 2, 1)
    assert T.p_exact_divide(P(T, 0, 0, 1), P(T, 0, 1)) == P(T, 0, 1)
    with pytest.raises(NonExactDivision):
        T.p_exact_divide(P(T, 1, 0, 1), P(T, 0, 1))


def test_minimality_of_unitary_moduli(T, rng):
    # no nonzero multiple of a unitary t has degree below deg t
    for _ in range(50):
        t = T.p_from_int_poly(
            tuple(rng.randrange(35) for _ in range(2)) + (1,))
        s = T.p_from_int_poly(tuple(rng.randrange(1, 35) for _ in range(3)))
        if not s.coeffs:
            continue
        prod = T.p_mul(t, s)
        assert prod.degree() >= t.degree()


def _crt_pairs(N):
    return [p for p, _ in [(5, 0), (7, 0)]] if N == 35 else [3, 5]


def test_gcd_crt_oracle_randomized(rng):
    N = 15
    T = AlgebraTower(N)
    for _ in range(250):
        s = tuple(rng.randrange(N) for _ in range(rng.randrange(1, 5)))
        t = tuple(rng.randrange(N) for _ in range(rng.randrange(1, 4))) + (1,)
        sp, tp = ia.ptrim(s), ia.ptrim(t)
        if not sp or not tp:
            continue
        try:
            d = T.p_gcd(T.p_from_int_poly(sp), T.p_from_int_poly(tp))
        except FactorEvent as ev:
            assert ev.level == -1 and ev.factor in (3, 5)
            continue
        for p in (3, 5):
            want = fp_gcd(list(sp), list(tp), p)
            got = fp_trim(poly_ints(d), p)
            assert got == want, (sp, tp, p)


def test_sfd_crt_oracle_randomized(rng):
    N = 15
    T = AlgebraTower(N)
    for _ in range(250):
        f = tuple(rng.randrange(N) for _ in range(rng.randrange(0, 3))) + (1,)
        f = ia.ptrim(f)
        if ia.pdeg(f) < 1:
            continue
        try:
            out = T.p_sfd(T.p_from_int_poly(f))
        except FactorEvent as ev:
            assert ev.level == -1 and ev.factor in (3, 5)
            continue
        for p in (3, 5):
            want = dict((tuple(s), l) for s, l in fp_sfd(list(f), p))
            got = {}
            for s, l in out:
                red = tuple(fp_trim(poly_ints(s), p))
                if red != (1,):
                    got[red] = l
            assert got == want, (f, p, got, want)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FactorEvent as ev:
        return ("event", ev.level, ev.factor)


@pytest.mark.parametrize("primes", [(5, 7), (11, 13, 17), (10007, 10009)])
def test_p_sfd_matches_the_yun_reference(primes):
    # Musser's loop against the Yun loop it replaced, at level 0 and over a
    # certified level 1 whose modulus (y+1)(y+2) splits modulo every prime;
    # two factors that agree modulo a zero divisor make the gcds split N or t
    rng = random.Random(8)
    N = math.prod(primes)
    T0 = AlgebraTower(N)
    T1 = T0.extend(T0.p_from_int_poly((2, 3, 1)))
    top = min(min(primes), 12)  # deg f < top: below every prime of N
    zero_divisors = [[T.embed_int(p, L) for p in primes] for T, L in
                     ((T0, 0), (T1, 1))]
    zero_divisors[1].append(T1.e_add(T1.z(1), T1.one(1)))
    seen = {"event": 0, "parts": 0}
    for T, L in ((T0, 0), (T1, 1)):
        for _ in range(60):
            f = T.p_one(L)
            while True:
                d, k = rng.randrange(1, 3), rng.randrange(1, 4)
                twin = rng.randrange(4) == 0
                if f.degree() + d * (k + twin) >= top:
                    break
                s = T.p_trim(L, [tuple(rng.randrange(N) for _ in
                                       range(T.sizes[L])) for _ in range(d)]
                             + [T.one(L)])
                f = T.p_mul(f, p_pow(T, s, k))
                if twin:
                    zd = rng.choice(zero_divisors[L])
                    r = T.p_trim(L, [T.e_mul(zd, c) for c in s.coeffs[:-1]])
                    f = T.p_mul(f, T.p_add(s, r))
            if f.degree() < 1:
                continue
            want = _outcome(lambda g: p_sfd_reference(T, g), f)
            assert _outcome(T.p_sfd, f) == want, (N, L, f)
            seen["event" if want[0] == "event" else "parts"] += 1
    assert seen["event"] >= 5 and seen["parts"] >= 5, seen


@pytest.mark.parametrize("p", [2, 3])
def test_p_sfd_in_characteristic_p(p):
    # p <= deg f: p-th-power factors reach the p-th-root path
    rng = random.Random(p)
    T = AlgebraTower(p)
    for _ in range(40):
        f = [1]
        for _ in range(rng.randrange(1, 4)):
            s = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
            for _ in range(rng.choice([1, 2, p, p + 1, p * p])):
                f = fp_mul(f, s, p)
        out = T.p_sfd(T.p_from_int_poly(f))
        assert [(tuple(poly_ints(s)), l) for s, l in out] == fp_sfd(f, p)


def test_two_level_tower(T):
    T2 = T.extend(P(T, 1, 0, 1))
    t1 = T2.p_trim(1, (T2.embed_int(1, 1), T2.one(1)))
    T12 = T2.extend(t1)
    a = T12.zpow(2, -3)
    assert T12.e_mul(a, T12.e_pow(T12.z(2), 3)) == T12.one(2)
    assert T2.zpow(1, -1) == T2.e_neg(T2.z(1))


def test_factor_events_verified_at_raise(T):
    with pytest.raises(AssertionError):
        T.factor_event(-1, 6)  # 6 does not divide 35
    T1 = T.extend(T.p_from_int_poly(ia.pmul((1, 1), (2, 1))))
    ev = T1.factor_event(0, T.p_from_int_poly((1, 1)))
    assert ev.level == 0
    with pytest.raises(AssertionError):
        T1.factor_event(0, T.p_from_int_poly((3, 1)))  # not a divisor


def test_degree_one_level_is_the_ring_below(T, rng, monkeypatch):
    # A_1 = A_0[i]/(i^2 + 1); A_2 = A_1[y]/(y - c) is A_1 again, with z_2 = c
    T1 = T.extend(P(T, 1, 0, 1))
    c = T1.e_add(T1.embed_int(2, 1), T1.e_mul(T1.embed_int(3, 1), T1.z(1)))
    T2 = T1.extend(PolyA(1, (T1.e_neg(c), T1.one(1))))
    # the same top modulus (y - 1)(y - 3) with and without the degree-1 level
    full = T2.extend(T2.p_from_int_poly((3, -4, 1), 2))
    short = T1.extend(T1.p_from_int_poly((3, -4, 1), 1))
    assert full.sizes == (1, 2, 2, 4) and short.sizes == (1, 2, 4)
    assert full.z(2) == c
    for k in range(-3, 4):
        assert full.zpow(2, k) == T1.e_pow(c, k)
        assert full.zpow(3, k) == short.zpow(2, k)

    divisors = []
    divmod_monic = AlgebraTower.p_divmod_monic

    def recording(self, s, t):
        divisors.append(t)
        return divmod_monic(self, s, t)

    monkeypatch.setattr(AlgebraTower, "p_divmod_monic", recording)

    def invert(tower, a, top):
        try:
            return "unit", tower.e_invert(a)
        except FactorEvent as ev:
            if ev.level == -1:
                return "N", ev.factor
            # the top modulus sits one level lower in `short`
            return ("top" if ev.level == top else ev.level), ev.factor.coeffs

    elems = [full.e_sub(full.z(3), full.one(3)),  # splits the top modulus
             full.embed_int(5, 3),  # splits N
             full.lift_elem(T1.e_sub(c, T1.one(1)), 3)]  # norm 10 in A_1
    elems += [tuple(rng.randrange(35) for _ in range(4)) for _ in range(40)]
    kinds = set()
    for a in elems:
        b = tuple(rng.randrange(35) for _ in range(4))
        assert full.e_mul(a, b) == short.e_mul(a, b)
        got = invert(full, a, 2)
        assert got == invert(short, a, 1)
        kinds.add(got[0])
    assert kinds == {"unit", "N", "top"}
    assert not any(t is full.moduli[1] for t in divisors)


# ---------------------------------------------------------------------------
# level-0 kernels on plain ints against the oracles and the replaced loops


def _big_primes():
    # N = p * q has about 700 bits, the size of the random fields' moduli
    return _next_prime(2 ** 349), _next_prime(3 ** 221)


@pytest.mark.parametrize("p", [2, 3, 29, 10007])
def test_level0_kernels_match_the_fp_oracle(p):
    rng = random.Random(p)
    T = AlgebraTower(p)

    def rand(n):
        return [rng.randrange(p) for _ in range(n)]

    for _ in range(60):
        c = rand(rng.randrange(0, 4)) + [1]
        f = fp_mul(rand(rng.randrange(1, 27)), c, p) or [0]
        g = rand(rng.randrange(0, 12)) + [1]
        h = fp_mul(rand(rng.randrange(0, 8)) + [rng.randrange(1, p)], c, p)
        F, G, H = (T.p_from_int_poly(tuple(x)) for x in (f, g, h))
        assert poly_ints(T.p_mul(F, G)) == fp_mul(f, g, p)
        q, r = T.p_divmod_monic(F, G)
        assert (poly_ints(q), poly_ints(r)) == fp_divmod(f, g, p)
        assert poly_ints(T.p_gcd(F, H)) == fp_gcd(f, h, p)


@pytest.mark.parametrize("primes", [(3, 5), (5, 7), (10007, 10009), "big"])
def test_level0_kernels_match_the_tuple_loops(primes):
    # a common factor c makes the gcds long; a zero divisor in a leading
    # coefficient or inside the common factor makes them raise
    primes = _big_primes() if primes == "big" else primes
    N = math.prod(primes)
    rng = random.Random(N % 9973)
    T = AlgebraTower(N)

    def rand(deg, lc=None):
        return T.p_from_int_poly(tuple(rng.randrange(N) for _ in range(deg))
                                 + (rng.randrange(N) if lc is None else lc,))

    seen = {"event": 0, "poly": 0}
    for _ in range(40):
        s, t = rand(rng.randrange(0, 30)), rand(rng.randrange(0, 12), 1)
        assert T.p_mul(s, t) == p_mul_reference(T, s, t)
        assert T.p_divmod_monic(s, t) == p_divmod_reference(T, s, t)
        zd = rng.choice(primes) * rng.randrange(1, N) % N
        c = rand(rng.randrange(0, 4), 1)
        a = T.p_mul(rand(rng.randrange(0, 8)), c)
        b = rand(rng.randrange(0, 6), rng.choice([1, zd]))
        if rng.randrange(2):
            c = T.p_add(c, T.p_from_int_poly((zd,)))
        b = T.p_mul(b, c)
        if not a.coeffs and not b.coeffs:
            continue
        want = _outcome(p_gcd_reference, T, a, b)
        assert _outcome(T.p_gcd, a, b) == want
        seen["poly" if isinstance(want, PolyA) else "event"] += 1
    assert seen["event"] >= 5 and seen["poly"] >= 5, seen


@pytest.mark.parametrize("N, n", [(15, 31), (29, 31), (2 ** 64 - 1, 257),
                                  ("big", 31)])
def test_kronecker_slot_boundary(N, n):
    # every coefficient N - 1 makes each product coefficient the largest sum
    # a slot must hold: 257 products of (2^64 - 2)^2 need 137 bits, one more
    # than a slot without the length term has
    N = math.prod(_big_primes()) if N == "big" else N
    T = AlgebraTower(N)
    p = T.p_from_int_poly((N - 1,) * n)
    for q in (p, T.p_from_int_poly((N - 1,) * 3)):
        assert T.p_mul(p, q) == p_mul_reference(T, p, q)
        assert T.p_mul(q, p) == p_mul_reference(T, p, q)


@pytest.mark.parametrize("N, coeffs", [(15, (3, 5, 1)), (35, (2, 5, 3, 1))])
def test_unit_certificate_falls_back_to_the_loop(N, coeffs):
    # 3 * 5 = 0 mod 15 and 2 * 5 * 3 shares 5 with 35: the one gcd fails,
    # and the loop names the same coefficient the per-coefficient check did
    T = AlgebraTower(N)
    t = T.p_from_int_poly(coeffs)
    want = _outcome(strongly_unitary_reference, T, t)
    assert want == ("event", -1, coeffs[0] if N == 15 else 5)
    assert _outcome(T.p_assert_strongly_unitary, t) == want
    assert _outcome(T.extend, t) == want


def test_unit_certificate_passes_units_over_a_large_modulus():
    N = math.prod(_big_primes())
    T = AlgebraTower(N)
    rng = random.Random(9)
    coeffs = tuple(rng.randrange(1, N) for _ in range(30)) + (1,)
    assert all(math.gcd(c, N) == 1 for c in coeffs)
    assert T.extend(T.p_from_int_poly(coeffs)).dims == (30,)
