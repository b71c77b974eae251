"""Acceptance criteria, one test per criterion, each printing a verdict line.

All comparisons are exact (integer or structural); the only tolerances are
the stated runtime budgets, checked with a monotonic clock.  Test-side
factorizations use the conftest Pollard helper; the artifact itself never
factors anything.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import (example1, example2, example3, fp_gcd, fp_sfd, fp_trim,
                      from_elements, hnf_merge, is_irreducible_over_z,
                      pollard_factor, poly_ints, polygon_of, refine_fixture)
from sfom import intarith as ia
from sfom import sftypes as st
from sfom.artinalg import AlgebraTower, FactorEvent
from sfom.basis import global_basis, n_integral_basis
from sfom.omprime import om_prime
from sfom.sfom import sfom
from sfom.validate import (index_disc_identity, p_maximal, project_check,
                           ring_closed)
from test_sftypes import random_robust, random_type


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_example1_tree():
    t0 = time.monotonic()
    N = 35
    f = example1(N)
    out = sfom(f, N)
    rep = out.rep
    ok = out.n_factor is None and len(rep.leaves) == 1
    leaf = rep.leaves[0]
    ch = leaf.chain()
    ok &= leaf.order == 2
    ok &= poly_ints(ch[0].t) == [0, 1]
    ok &= (ch[1].h, ch[1].e) == (1, 2) and poly_ints(ch[1].t) == [1, 1]
    ok &= (ch[2].h, ch[2].e) == (3, 2) and poly_ints(ch[2].t) == [1, 1]
    ok &= ch[2].g == (35, 0, 1)
    p1 = polygon_of(ch[1], f).principal_vertices
    p2 = polygon_of(ch[2], f).principal_vertices
    ok &= p1 == ((0, 2), (4, 0)) and p2 == ((0, 7), (2, 4))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _verdict(1, ok, f"unique leaf (y; (x,1/2,y+1); (x^2+35,3/2,y+1)), "
                    f"polygons (0,2)-(4,0) and (0,7)-(2,4), {elapsed:.3f}s")


def test_criterion_2_example1_basis():
    t0 = time.monotonic()
    N = 35
    f = example1(N)
    rep = sfom(f, N).rep
    lat = from_elements(n_integral_basis(rep, f, N), f, N)
    from sfom.basis import BasisElement
    want = from_elements([
        BasisElement((1,), 0), BasisElement((0, 1), 0),
        BasisElement((0, 0, 1), 1), BasisElement((0, N, 0, 1), 2),
    ], f, N)
    elapsed = time.monotonic() - t0
    ok = lat == want and elapsed < 1.0
    _verdict(2, ok, f"basis lattice equals span{{1, th, th^2/35, "
                    f"(th^3+35th)/35^2}}, {elapsed:.3f}s")


# primes of disc(f) for N = 10007*10009, precomputed test-side with
# Pollard rho / Miller-Rabin: disc = -N^9 (N-1)^2 (27N^5 - 54N^4 + 27N^3 - 256)
STRETCH_N = 10007 * 10009
STRETCH_DISC_PRIMES = [
    2, 5, 7, 23, 239, 4451, 10007, 10009, 50080031,
    79455750425180320148669193210341,
]


def test_criterion_2_stretch_large_modulus():
    t0 = time.monotonic()
    N = STRETCH_N
    f = example1(N)
    D = ia.discriminant(f)
    check = -N ** 9 * (N - 1) ** 2 * (27 * N ** 5 - 54 * N ** 4
                                      + 27 * N ** 3 - 256)
    assert D == check
    prod = 1
    for p, e in pollard_factor(D).items():
        prod *= p ** e
    assert prod == abs(D) and set(pollard_factor(D)) == set(STRETCH_DISC_PRIMES)
    result = global_basis(f)
    lat = result.merged
    ok = ring_closed(lat, f) and index_disc_identity(lat, f)
    for p in [5, 7] + STRETCH_DISC_PRIMES:
        ok &= p_maximal(lat, f, p)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _verdict(2, ok, f"N=10007*10009 end-to-end, maximal at 5, 7 and all "
                    f"{len(STRETCH_DISC_PRIMES)} primes of disc, {elapsed:.1f}s")


def test_criterion_3_example2():
    t0 = time.monotonic()
    p, r, m = 11, 3, 5
    f = example2(p, r, m)
    assert is_irreducible_over_z(f)
    rep = sfom(f, p).rep
    ok = len(rep.leaves) == 1
    leaf = rep.leaves[0]
    ok &= leaf.order == 1 and (leaf.h, leaf.e) == (1, 2)
    want_t = ia.pmul(ia.pmul((1, 1), (2, 1)), (3, 1))
    ok &= poly_ints(leaf.t) == [c % p for c in want_t]
    lat = from_elements(n_integral_basis(rep, f, p), f, p)
    coef = list(f)
    from sfom.basis import BasisElement
    want_els = []
    for k in range(r):
        num = tuple(coef[2 * r - 2 * k:])
        want_els.append(BasisElement(num, k))
        want_els.append(BasisElement(ia.pshift(num, 1), k))
    ok &= lat == from_elements(want_els, f, p)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _verdict(3, ok, f"one order-1 leaf with t_1=(y+1)(y+2)(y+3) and the "
                    f"displayed basis lattice, {elapsed:.3f}s")


def test_criterion_4_example3():
    t0 = time.monotonic()
    N = 37 * 41
    f, phi = example3(3, N)
    out = sfom(f, N)
    rep = out.rep
    ok = out.n_factor is None and len(rep.leaves) == 1
    leaf = rep.leaves[0]
    ch = leaf.chain()
    ok &= leaf.order == 2
    ok &= (ch[1].h, ch[1].e) == (1, 2) and (ch[2].h, ch[2].e) == (2, 3)
    ok &= poly_ints(ch[1].t) == [c % N for c in ia.pmul((1, 1), (-1, 1))]
    want_t2 = ia.pmul(ia.pmul((-1, 1), (-2, 1)), (-3, 1))
    ok &= poly_ints(ch[2].t) == [c % N for c in want_t2]
    ok &= ch[2].g == phi
    report = project_check(rep, f, 37)
    ok &= report["ok"] and report["groups"] == [6]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _verdict(4, ok, f"single order-2 leaf, slopes (1/2, 2/3), 6 prime leaves "
                    f"at 37, {elapsed:.1f}s")


def test_criterion_5_product_law_suite(rng):
    t0 = time.monotonic()
    instances = 0
    failures = 0
    while instances < 100:
        order = 1 + (instances % 2)
        try:
            node = random_type(35, order, rng)
            f = random_robust(node, rng)
            h = ia.ptrim([rng.randrange(-35 ** 2, 35 ** 2)
                          for _ in range(rng.randrange(1, 2 * node.m + 2))])
            if not h:
                continue
            af, ah, afh = (st.analyze(node, x) for x in (f, h, ia.pmul(f, h)))
        except FactorEvent:
            continue
        instances += 1
        if afh.v != af.v + ah.v:
            failures += 1
        elif (afh.s0, afh.u0, afh.s1, afh.u1) != (
                af.s0 + ah.s0, af.u0 + ah.u0, af.s1 + ah.s1, af.u1 + ah.u1):
            failures += 1
        elif afh.R != node.tower.p_mul(af.R, ah.R):
            failures += 1
    elapsed = time.monotonic() - t0
    _verdict(5, failures == 0,
             f"{instances} randomized product-law instances, {failures} "
             f"failures, {elapsed:.1f}s")


def test_criterion_6_crt_oracle_exhaustive():
    t0 = time.monotonic()
    N = 15
    T = AlgebraTower(N)
    violations = 0
    count = 0
    all_monic = []
    for deg in (1, 2, 3):
        for tail in product(range(N), repeat=deg):
            all_monic.append(ia.ptrim(tail + (1,)))
    for f in all_monic:
        count += 1
        fp = T.p_from_int_poly(f)
        deriv = ia.pderiv(f)
        # gcd against the derivative (the squarefree-decomposition workhorse)
        try:
            d = T.p_gcd(fp, T.p_from_int_poly(deriv)) if deriv else None
        except FactorEvent as ev:
            if not (ev.level == -1 and ev.factor in (3, 5)):
                violations += 1
            d = None
        if d is not None:
            for p in (3, 5):
                want = fp_gcd(list(f), list(deriv), p)
                if fp_trim(poly_ints(d), p) != want:
                    violations += 1
        try:
            out = T.p_sfd(fp)
        except FactorEvent as ev:
            if not (ev.level == -1 and ev.factor in (3, 5)):
                violations += 1
            continue
        for p in (3, 5):
            want = dict((tuple(s), l) for s, l in fp_sfd(list(f), p))
            got = {}
            for s, l in out:
                red = tuple(fp_trim(poly_ints(s), p))
                if red != (1,):
                    got[red] = l
            if got != want:
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    _verdict(6, ok, f"exhaustive over {count} monic polynomials mod 15, "
                    f"{violations} violations, {elapsed:.1f}s")


def test_criterion_7_quotient_identities():
    t0 = time.monotonic()
    cases = [
        (example1(35), 35, [5, 7]),
        (example2(11, 3, 5), 11, [11]),
        (example3(3, 37 * 41)[0], 37 * 41, [37, 41]),
    ]
    checked = 0
    ok = True
    for f, N, primes in cases:
        rep = sfom(f, N).rep
        n = ia.pdeg(f)
        for leaf in rep.leaves:
            eprod = 1
            for i in range(1, leaf.order + 1):
                node = leaf.trunc(i)
                eprod *= node.e
                an = st.analyze(node, f)
                exp = st.expand(f, node.g)
                cs = list(an.R.coeffs)
                d = len(cs) - 1
                # residual suffix law for every quotient inside the side
                for s in range(an.s0 + 1, an.s1 + 1):
                    q = exp.quotients[s - 1]
                    lead = min(j for j in range(d + 1)
                               if an.s0 + j * node.e >= s
                               and not node.tower.is_zero(cs[j]))
                    want = node.tower.p_trim(node.order, cs[lead:])
                    ok &= st.analyze(node, q).R == want
                    checked += 1
                # aggregate denominator bound for the basis quotients
                for j in range(node.e * node.fdim):
                    q = exp.quotients[an.s1 - j - 1]
                    H = Fraction(st.analyze(node, q).v, eprod)
                    if H == 0:
                        continue
                    res = ia.resultant(f, q)
                    for p in primes:
                        val = ia.ord_n(res, p)[0]
                        ok &= Fraction(val) >= n * H
                        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(7, ok, f"{checked} residual-suffix and resultant-valuation "
                    f"checks on the three worked examples, {elapsed:.1f}s")


def test_criterion_8_random_fields_maximality(rng):
    t0 = time.monotonic()
    done = 0
    failures = 0
    while done < 50:
        n = rng.randrange(2, 7)
        f = ia.ptrim([rng.randrange(-20, 21) for _ in range(n)] + [1])
        if ia.pdeg(f) != n or not is_irreducible_over_z(f):
            continue
        result = global_basis(f)
        lat = result.merged
        if not ring_closed(lat, f) or not index_disc_identity(lat, f):
            failures += 1
        else:
            for p in sorted(pollard_factor(ia.discriminant(f))):
                if not p_maximal(lat, f, p):
                    failures += 1
                    break
        done += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 300.0
    _verdict(8, ok, f"{done} random fields (deg <= 6, height <= 20): ring "
                    f"closure, index identity, maximality; {failures} "
                    f"failures, {elapsed:.1f}s")


def test_criterion_9_engine_agreement(rng):
    t0 = time.monotonic()
    fixtures = []
    # fixed interesting shapes plus random draws, all at primes above deg f
    fixtures.append((example2(11, 2, 3), 11))
    fixtures.append((example2(13, 3, 4), 13))
    fixtures.append((example1(11), 11))
    fixtures.append(((121, 22, 1, 1), 11))
    while len(fixtures) < 20:
        p = rng.choice([7, 11, 13, 17])
        n = rng.randrange(2, min(p, 7))
        f = ia.ptrim([rng.randrange(-p * p, p * p) for _ in range(n)] + [1])
        if ia.pdeg(f) == n and is_irreducible_over_z(f):
            fixtures.append((f, p))
    agree = 0
    for f, p in fixtures:
        rep_p = om_prime(f, p)
        out = sfom(f, p)
        assert out.n_factor is None
        lat_p = from_elements(n_integral_basis(rep_p, f, p), f, p)
        lat_c = from_elements(n_integral_basis(out.rep, f, p), f, p)
        if hnf_merge([lat_p], f) == hnf_merge([lat_c], f):
            agree += 1
    elapsed = time.monotonic() - t0
    ok = agree == len(fixtures) >= 20
    _verdict(9, ok, f"{agree}/{len(fixtures)} fixtures with identical local "
                    f"lattices from both engines, {elapsed:.1f}s")
