import collections
import math
import random

import pytest

from conftest import (_next_prime, e_invert_reference, e_mul_reference,
                      fp_divmod, fp_gcd, fp_mul, fp_sfd, fp_trim, int_poly_at,
                      p_deriv_reference, p_divmod_reference, p_gcd_reference,
                      p_mul_reference, p_pow, p_quotrem,
                      p_sfd_musser_reference, p_sfd_reference, poly_ints,
                      strongly_unitary_reference)
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
    assert T.p_gcd(PolyA(0, ()), P(T, -1, 2)) == T.p_make_monic(P(T, -1, 2))


def _inverse_or_split(T, a):
    """e_invert(a) as the reference loop gives it: an inverse, checked by a
    product, or a FactorEvent; one at the level below a (a split of the
    modulus t of a's level) carries a monic proper divisor of t.  Returns
    "unit" or the event's ("event", level, factor)."""
    L = T.sizes.index(len(a))
    got = _outcome(T.e_invert, a)
    assert got == _outcome(e_invert_reference, T, a), a
    if got[0] != "event":
        assert T.e_mul(a, got) == T.one(L)
        return "unit"
    if got[1] == L - 1:
        d, t = got[2], T.moduli[L - 1]
        assert T.p_is_monic(d) and 0 < d.degree() < t.degree()
        assert not T.p_divmod_monic(t, d)[1].coeffs
    return got


def test_e_invert_examples(T):
    # over Z/35: t_0 = y(y + 1); over the nonlinear A_1 = Z/35[x]/(x^2 + 3x
    # + 2): t_1 = (y - x)(y + 1), in which x + 1 is a zero divisor of A_1
    T1 = T.extend(P(T, 0, 1, 1))
    z = T1.z(1)
    assert _inverse_or_split(T1, T1.e_add(z, T1.embed_int(2, 1))) == "unit"
    assert _inverse_or_split(T1, z) == ("event", 0, P(T, 0, 1))
    assert _inverse_or_split(T1, T1.e_add(z, T1.one(1))) == (
        "event", 0, P(T, 1, 1))
    assert _inverse_or_split(T1, T1.embed_int(5, 1)) == ("event", -1, 5)
    Tx = T.extend(P(T, 2, 3, 1))
    x, one = Tx.z(1), Tx.one(1)
    T2 = Tx.extend(Tx.p_trim(1, [Tx.e_neg(x), Tx.e_sub(one, x), one]))
    w = T2.z(2)
    assert T2.sizes == (1, 2, 4)
    assert _inverse_or_split(T2, w) == "unit"
    assert _inverse_or_split(T2, T2.e_sub(w, T2.lift_elem(x, 2))) == (
        "event", 1, Tx.p_trim(1, [Tx.e_neg(x), one]))
    assert _inverse_or_split(T2, T2.e_add(w, T2.one(2))) == (
        "event", 1, Tx.p_trim(1, [one, one]))
    assert _inverse_or_split(T2, T2.embed_int(7, 2)) == ("event", -1, 7)
    # (x + 1) w + 1: the loop's second divisor has the leading coefficient
    # x + 1, whose inverse splits t_0
    a = T2.e_add(T2.e_mul(T2.lift_elem(Tx.e_add(x, one), 2), w), T2.one(2))
    assert _inverse_or_split(T2, a) == ("event", 0, P(T, 1, 1))


@pytest.mark.parametrize("t0", [None, (2, 3, 1)],
                         ids=["over_z_n", "over_a_nonlinear_level"])
def test_e_invert_bezout_random(t0):
    # a level over Z/N (t0 None) and over the nonlinear A_1 = Z/N[x]/(t0),
    # each time under a fresh modulus t of degree 2 or 3 (the loop's length
    # changes parity), a product of two random monic parts; a third of the
    # elements are random, a third a part times a random cofactor mod t, so
    # that their gcd with t is that part or more, and a third a zero divisor
    # of the level below times a random element
    N = 10007 * 10009
    rng = random.Random(35)
    T = AlgebraTower(N)
    if t0:
        T = T.extend(T.p_from_int_poly(t0))
    L = T.levels()
    zero_divisors = [T.embed_int(10007, L)] + (
        [T.e_add(T.z(1), T.one(1))] if t0 else [])
    kinds = collections.Counter()
    for k in range(120):
        t, parts = _split_modulus(T, L, (1, 1 + k // 3 % 2), rng)
        T1 = T.extend(t)
        a = _rand_elem(T1, L + 1, rng)
        if k % 3 == 1:
            r = T.p_trim(L, [_rand_elem(T, L, rng) for _ in range(3)])
            a = T1.poly_to_elem(T.p_divmod_monic(
                T.p_mul(rng.choice(parts), r), t)[1], L + 1)
        elif k % 3 == 2:
            a = T1.e_mul(T1.lift_elem(rng.choice(zero_divisors), L + 1), a)
        if not T1.is_zero(a):
            got = _inverse_or_split(T1, a)
            kinds[got if got == "unit" else got[:2]] += 1
    assert kinds["unit"] >= 15 and kinds["event", L] >= 15, kinds
    assert kinds["event", -1] >= 5 and (not t0 or kinds["event", 0] >= 5), kinds


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


@pytest.mark.parametrize("N", [7, 35])
def test_p_sfd_of_degree_one_matches_the_reference(N):
    # a degree-1 input returns [(monic f, 1)] after one certificate, with
    # the events of the full loop: the leading coefficient's inverse first,
    # then the certificate; y^2 + 3y + 2 splits modulo 5 and 7, and y^2 + 1
    # stays irreducible modulo 7
    T0 = AlgebraTower(N)
    t0 = (2, 3, 1) if N == 35 else (1, 0, 1)
    T1 = T0.extend(T0.p_from_int_poly(t0))
    rng = random.Random(N)
    seen = collections.Counter()
    for T, L in ((T0, 0), (T1, 1)):
        special = [T.embed_int(c, L) for c in (0, 1, 3, 5, 7, N - 1)]
        if L:
            special += [T1.z(1), T1.e_add(T1.z(1), T1.one(1))]
        cases = [(a, b) for a in special[1:] for b in special]
        cases += [tuple(tuple(rng.randrange(N) for _ in range(T.sizes[L]))
                        for _ in range(2)) for _ in range(40)]
        for lc, c0 in cases:
            if T.is_zero(lc):
                continue
            f = T.p_trim(L, [c0, lc])
            want = _outcome(lambda g: p_sfd_reference(T, g), f)
            assert _outcome(T.p_sfd, f) == want, (N, L, lc, c0)
            if want[0] == "event":
                seen[L, want[1]] += 1
            else:
                assert want == [(T.p_make_monic(f), 1)]
                seen[L, "parts"] += 1
    if N == 35:  # zero-divisor leading and constant coefficients
        assert {(0, -1), (1, -1), (1, 0), (0, "parts"), (1, "parts")} <= set(
            seen), seen
        f = T0.p_trim(0, [T0.one(0), T0.embed_int(5, 0)])
        assert _outcome(T0.p_sfd, f) == ("event", -1, 5)
        f = T0.p_trim(0, [T0.embed_int(7, 0), T0.one(0)])
        assert _outcome(T0.p_sfd, f) == ("event", -1, 7)
    else:
        assert set(seen) == {(0, "parts"), (1, "parts")}, seen


def _musser_agrees(T, f):
    """p_sfd and the loop before its shared division give one outcome."""
    want = _outcome(lambda g: p_sfd_musser_reference(T, g), f)
    assert _outcome(T.p_sfd, f) == want, (T.N, f)
    return want


@pytest.mark.parametrize("t0", [None, (2, 3, 1)],
                         ids=["level_0", "over_a_nonlinear_level"])
def test_p_sfd_musser_step_on_powers(t0):
    # x^k and (x - a)^k (x - b): every step of x^k divides c by w = x with
    # no remainder, while (x - a)^k (x - b) first meets a nonzero one; b - a
    # is a unit, or a zero divisor that splits N or t_0 = (y + 1)(y + 2)
    N = 10007 * 10009
    T = AlgebraTower(N)
    if t0:
        T = T.extend(T.p_from_int_poly(t0))
    L = T.levels()
    rng = random.Random(60)
    zero_divisors = [T.embed_int(10009, L)] + (
        [T.e_add(T.z(1), T.one(1))] if t0 else [])
    x = T.p_y(L)
    seen = collections.Counter()
    ks = range(1, 61) if L == 0 else (*range(1, 9), 12, 16, 24, 36, 48, 60)
    for i, k in enumerate(ks):
        assert _musser_agrees(T, p_pow(T, x, k)) == [(x, k)]
        a = tuple(rng.randrange(N) for _ in range(T.sizes[L]))
        b = T.e_add(a, rng.choice(zero_divisors) if i % 2 else
                    tuple(rng.randrange(N) for _ in range(T.sizes[L])))
        f = T.p_mul(p_pow(T, T.p_trim(L, [T.e_neg(a), T.one(L)]), k),
                    T.p_trim(L, [T.e_neg(b), T.one(L)]))
        want = _musser_agrees(T, f)
        seen["event" if want[0] == "event" else len(want)] += 1
    assert seen["event"] >= 5 and seen[2] >= 5, seen


@pytest.mark.parametrize("primes", [(5, 7), (11, 13), (10007, 10009)],
                         ids=["35", "143", "10007*10009"])
def test_p_sfd_musser_step_matches_the_reference(primes):
    # seeded products of powers of random monic parts, at level 0 and over
    # t_0 = (y + 1)(y + 2); a twin part that agrees with another modulo a
    # zero divisor makes a gcd split N or t_0
    N, p = math.prod(primes), primes[0]
    rng = random.Random(N)
    T0 = AlgebraTower(N)
    T1 = T0.extend(T0.p_from_int_poly((2, 3, 1)))
    top = min(p, 16)  # deg f < top: below every prime of N
    seen = collections.Counter()
    for T, L in ((T0, 0), (T1, 1)):
        zero_divisors = [T.embed_int(p, L)] + (
            [T1.e_add(T1.z(1), T1.one(1))] if L else [])
        for _ in range(50):
            f = T.p_one(L)
            while True:
                d, k = rng.randrange(1, 3), rng.randrange(1, 5)
                twin = rng.randrange(3) == 0
                if f.degree() + d * (k + twin) >= top:
                    break
                s = T.p_trim(L, [tuple(rng.randrange(N) for _ in
                                       range(T.sizes[L])) for _ in range(d)]
                             + [T.one(L)])
                f = T.p_mul(f, p_pow(T, s, k))
                if twin:
                    zd = rng.choice(zero_divisors)
                    r = T.p_trim(L, [T.e_mul(zd, c) for c in s.coeffs[:-1]])
                    f = T.p_mul(f, T.p_add(s, r))
            if f.degree() >= 1:
                want = _musser_agrees(T, f)
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
    full = T2.extend(int_poly_at(T2, (3, -4, 1), 2))
    short = T1.extend(int_poly_at(T1, (3, -4, 1), 1))
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
    primes = _big_primes() if primes == "big" else primes
    _kernels_match_the_tuple_loops(AlgebraTower(math.prod(primes)), 0, primes)


@pytest.mark.parametrize("primes", [(3, 5), (5, 7), (10007, 10009), "big"])
def test_one_residue_levels_match_the_tuple_loops(primes):
    # over linear moduli every element of level 2 is a 1-tuple, and level 2
    # runs the level-0 kernels
    primes = _big_primes() if primes == "big" else primes
    N = math.prod(primes)
    T = AlgebraTower(N)
    for L, c in enumerate((1, N - 1)):  # y + 1, then y - 1
        T = T.extend(int_poly_at(T, (c, 1), L))
    assert T.sizes == (1, 1, 1)
    _kernels_match_the_tuple_loops(T, 2, primes)


def test_p_deriv_matches_the_tower_product():
    # i * c taken coordinatewise, at every level of a tower whose elements
    # have 1, 2 and 6 coordinates
    N = 35
    T = AlgebraTower(N)
    for L, t in enumerate([(1, 1, 1), (3, 0, 0, 1)]):
        T = T.extend(int_poly_at(T, t, L))
    rng = random.Random(5)
    for L in range(3):
        for _ in range(20):
            p = T.p_trim(L, [tuple(rng.randrange(N) for _ in range(T.sizes[L]))
                             for _ in range(rng.randrange(0, 12))])
            assert T.p_deriv(p) == p_deriv_reference(T, p)


def _kernels_match_the_tuple_loops(T, L, primes):
    # a common factor c makes the gcds long; a zero divisor in a leading
    # coefficient or inside the common factor makes them raise
    N = T.N
    rng = random.Random(N % 9973 + L)

    def rand(deg, lc=None):
        return int_poly_at(T, tuple(rng.randrange(N) for _ in range(deg))
                           + (rng.randrange(N) if lc is None else lc,), L)

    seen = {"event": 0, "poly": 0}
    for _ in range(40):
        s, t = rand(rng.randrange(0, 30)), rand(rng.randrange(0, 12), 1)
        assert T.p_mul(s, t) == p_mul_reference(T, s, t)
        assert T.p_divmod_monic(s, t) == p_divmod_reference(T, s, t)
        assert T.p_deriv(s) == p_deriv_reference(T, s)
        zd = rng.choice(primes) * rng.randrange(1, N) % N
        c = rand(rng.randrange(0, 4), 1)
        a = T.p_mul(rand(rng.randrange(0, 8)), c)
        b = rand(rng.randrange(0, 6), rng.choice([1, zd]))
        if rng.randrange(2):
            c = T.p_add(c, int_poly_at(T, (zd,), L))
        b = T.p_mul(b, c)
        if not a.coeffs and not b.coeffs:
            continue
        want = _outcome(p_gcd_reference, T, a, b)
        assert _outcome(T.p_gcd, a, b) == want
        seen["poly" if isinstance(want, PolyA) else "event"] += 1
    assert seen["event"] >= 5 and seen["poly"] >= 5, seen


def _split_modulus(T, L, degrees, rng):
    """(t, parts): a monic modulus at level L, the product of two random
    monic parts of the given degrees, drawn again until it would pass
    `extend`."""
    while True:
        parts = [T.p_trim(L, [_rand_elem(T, L, rng) for _ in range(k)]
                          + [T.one(L)]) for k in degrees]
        t = T.p_mul(*parts)
        if (not T.is_zero(t.coeffs[0])
                and _outcome(T.p_assert_strongly_unitary, t) is None):
            return t, parts


def _rand_elem(T, L, rng):
    return tuple(rng.randrange(T.N) for _ in range(T.sizes[L]))


def _e_pow_reference(T, a, k):
    if k < 0:
        a, k = e_invert_reference(T, a), -k
    out = T.one(T.sizes.index(len(a)))
    for _ in range(k):
        out = e_mul_reference(T, out, a)
    return out


def _elements_match_the_polya_route(T, L, parts, zero_divisors, rng):
    """Compare e_mul, e_invert and e_pow at level L + 1 of T with the
    references on random elements, multiples of a part of the top modulus
    and zero-divisor multiples; return the outcome kinds of the inverses."""
    top = T.moduli[L]
    elems = [_rand_elem(T, L + 1, rng) for _ in range(12)]
    for g in parts:  # g * r mod t
        r = T.p_trim(L, [_rand_elem(T, L, rng) for _ in range(top.degree())])
        elems.append(T.poly_to_elem(
            T.p_divmod_monic(T.p_mul(g, r), top)[1], L + 1))
    for zd in zero_divisors:
        elems.append(T.e_mul(T.lift_elem(zd, L + 1),
                             _rand_elem(T, L + 1, rng)))
    kinds = collections.Counter()
    for a in elems:
        b = _rand_elem(T, L + 1, rng)
        assert T.e_mul(a, b) == e_mul_reference(T, a, b)
        if T.is_zero(a):
            continue
        want = _outcome(e_invert_reference, T, a)
        assert _outcome(T.e_invert, a) == want, (a, want)
        for k in (-2, -1, 3):
            assert (_outcome(T.e_pow, a, k)
                    == _outcome(_e_pow_reference, T, a, k))
        kinds[want[:2] if want[0] == "event" else "unit"] += 1
    return kinds


@pytest.mark.parametrize("primes", [(3, 5), (5, 7), (10007, 10009), "big"])
def test_elements_over_z_n_match_the_polya_route(primes):
    # a level whose coordinates lie in Z/N, over level 0 and over a linear
    # level: int-list products and inverses against the PolyA route, with
    # each event's level and factor
    primes = _big_primes() if primes == "big" else primes
    N = math.prod(primes)
    rng = random.Random(N % 9973)
    T0 = AlgebraTower(N)
    T1 = T0.extend(T0.p_from_int_poly((N - 2, 1)))
    seen = collections.Counter()
    for d in (2, 3, 4):
        for T, L in ((T0, 0), (T1, 1)):
            t, parts = _split_modulus(T, L, (1, d - 1), rng)
            T = T.extend(t)
            assert T.sizes[L:] == (1, d)
            zds = [T.embed_int(p, L) for p in primes]
            seen += _elements_match_the_polya_route(T, L, parts, zds, rng)
    assert seen["unit"] >= 5, seen
    assert seen["event", -1] >= 5, seen
    assert seen["event", 0] + seen["event", 1] >= 5, seen


def test_two_nonlinear_levels_match_the_polya_route():
    # level 2 has 4 coordinates over a level of 2, so its products and
    # inverses take the PolyA paths; z + 1 divides t_0 = (y + 1)(y + 2)
    rng = random.Random(35)
    T = AlgebraTower(10007 * 10009)
    T = T.extend(T.p_from_int_poly((2, 3, 1)))
    t, parts = _split_modulus(T, 1, (1, 1), rng)
    T = T.extend(t)
    assert T.sizes == (1, 2, 4)
    zds = [T.embed_int(10007, 1), T.e_add(T.z(1), T.one(1))]
    seen = collections.Counter()
    for _ in range(4):
        seen += _elements_match_the_polya_route(T, 1, parts, zds, rng)
    assert set(seen) == {"unit", ("event", -1), ("event", 0),
                         ("event", 1)}, seen


def _raising_gap(T, a, b):
    """deg a - deg b at the step where the reference loop meets a leading
    coefficient that is no unit, or None when it meets none."""
    N = T.N
    while b.coeffs:
        lc = b.coeffs[-1][0]
        if math.gcd(lc, N) != 1:
            return a.degree() - b.degree()
        inv = pow(lc, -1, N)
        b = T.p_from_int_poly(tuple(c[0] * inv for c in b.coeffs))
        a, b = b, p_divmod_reference(T, a, b)[1]
    return None


def _crt_poly(parts, primes):
    """The coefficients over Z/N whose images mod the primes are `parts`."""
    N = math.prod(primes)
    out = [0] * max(map(len, parts))
    for part, p in zip(parts, primes):
        unit = N // p * pow(N // p, -1, p)  # 1 mod p, 0 mod the others
        for i, c in enumerate(part):
            out[i] += c * unit
    return tuple(x % N for x in out)


def _zero_divisor_then_long_gap(rng, primes):
    """(a, b, sharp) with deg a = deg b + 1 and lc(b) = 0 mod one prime p_j.

    b mod p_j also loses its next coefficient, so the pseudo-remainder of a
    by b vanishes mod p_j; mod every other prime, a mod b has a degree of its
    own, at most deg b - 2.  The step after the zero divisor then has gap
    >= 2, and when those degrees differ (`sharp`), its leading coefficient
    shares more than p_j with N."""
    m, j = rng.randrange(3, 8), rng.randrange(len(primes))
    A, B, degrees = [], [], set()
    for i, p in enumerate(primes):
        def rand(k):
            return [rng.randrange(p) for _ in range(k)]
        if i == j:
            A.append(rand(m + 1) + [rng.randrange(1, p)])
            B.append(rand(m - 1) + [0, 0])
            continue
        b = rand(m) + [rng.randrange(1, p)]
        r = rand(rng.randrange(0, m - 1)) + [rng.randrange(1, p)]
        a = fp_mul([rng.randrange(p), rng.randrange(1, p)], b, p)
        A.append([(x + (r[k] if k < len(r) else 0)) % p
                  for k, x in enumerate(a)])
        B.append(b)
        degrees.add(len(r))
    return _crt_poly(A, primes), _crt_poly(B, primes), len(degrees) > 1


@pytest.mark.parametrize("primes", [(3, 5), (5, 7), (10007, 10009), "big"])
def test_level0_gcd_with_deferred_leading_coefficients(primes):
    # Gap-1 steps defer their leading coefficients.  Every outcome (the
    # monic gcd, or the event's level and factor) must be the monic loop's,
    # also when a deferred zero divisor is followed by a gap >= 2 step.  The
    # big N has about 700 bits and three primes, so that the first non-unit
    # and a later one can share different factors with N.
    if primes == "big":
        primes = (_next_prime(2 ** 233), _next_prime(3 ** 147),
                  _next_prime(5 ** 100))
    N = math.prod(primes)
    rng = random.Random(N % 10007)
    T = AlgebraTower(N)

    def unit():
        while math.gcd(x := rng.randrange(1, N), N) != 1:
            pass
        return x

    def rand(deg, lc=None):
        return T.p_from_int_poly(tuple(rng.randrange(N) for _ in range(deg))
                                 + (unit() if lc is None else lc,))

    seen = collections.Counter()
    for k in range(60):
        if k % 2:  # a chain of gap-1 steps, some with a zero divisor
            zd = rng.choice(primes) * rng.randrange(1, N) % N
            c = rand(rng.randrange(0, 4), rng.choice([1, 1, zd]))
            m = rng.choice([0, 1, 2, rng.randrange(3, 12)])
            a = T.p_mul(rand(m + 1), c)
            b = T.p_mul(rand(m, rng.choice([None, None, zd])), c)
        else:
            a, b, sharp = _zero_divisor_then_long_gap(rng, primes)
            a, b = T.p_from_int_poly(a), T.p_from_int_poly(b)
            seen["sharp"] += sharp
            if rng.randrange(2):  # a deferred unit before the zero divisor
                a, b = T.p_add(T.p_mul(rand(1, 1), a), b), a
        want = _outcome(p_gcd_reference, T, a, b)
        assert _outcome(T.p_gcd, a, b) == want, (a, b)
        if isinstance(want, PolyA):
            seen["poly"] += 1
        else:
            seen["deferred event"] += _raising_gap(T, a, b) == 1
    assert seen["poly"] >= 5 and seen["deferred event"] >= 5, seen
    assert len(primes) < 3 or seen["sharp"] >= 5, seen


@pytest.mark.parametrize("N, n", [(15, 31), (29, 31), (2 ** 64 - 1, 257),
                                  ("big", 31)])
def test_kronecker_slot_boundary(N, n):
    # every coefficient N - 1 makes each product coefficient the largest sum
    # over Z before the one reduction mod N: 257 products of (2^64 - 2)^2
    # need 137 bits, and the product stays exact
    N = math.prod(_big_primes()) if N == "big" else N
    T = AlgebraTower(N)
    p = T.p_from_int_poly((N - 1,) * n)
    for q in (p, T.p_from_int_poly((N - 1,) * 3)):
        assert T.p_mul(p, q) == p_mul_reference(T, p, q)
        assert T.p_mul(q, p) == p_mul_reference(T, p, q)


@pytest.mark.parametrize("N, coeffs", [(15, (3, 5, 1)), (35, (2, 5, 3, 1))])
def test_unit_certificate_falls_back_to_the_loop(N, coeffs):
    # 3 and 5 both share a factor with 15, and 5 is the first coefficient
    # of 2 + 5y + 3y^2 + y^3 to share one with 35: the certificate raises
    # the event of the first coefficient that fails, as the reference does
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
