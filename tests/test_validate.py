import random
from fractions import Fraction

import pytest

from conftest import (charpoly_is_integral_reference, example1, example2,
                      example3, pollard_factor, power_basis,
                      quotient_value_bound, refine_fixture,
                      sylvester_resultant)
from sfom import intarith as ia
from sfom import validate
from sfom.basis import IntegerLattice, global_basis, n_integral_basis
from sfom.omprime import om_prime
from sfom.sfom import sfom
from sfom.validate import (charpoly, charpoly_is_integral, index_disc_identity,
                           normalized_chain, order_discriminant, p_maximal,
                           power_sums, project_check, pz_enlarge,
                           resultant_valuation_check, ring_closed,
                           verify_report)


def test_power_sums():
    assert power_sums((1, 0, 1)) == [2, 0, -2]
    assert power_sums((-2, 0, 0, 1)) == [3, 0, 0, 6, 0]


def test_charpoly_integrality():
    f = (1, 0, 1)
    assert charpoly_is_integral((0, 1), 1, f)
    assert not charpoly_is_integral((0, 1), 2, f)
    # (1 + theta)/2: trace 1 is integral, norm 1/2 is not
    assert not charpoly_is_integral((1, 1), 2, f)
    f = (-5, 0, 1)
    assert charpoly_is_integral((1, 1), 2, f)  # golden-ratio-like integer
    assert not charpoly_is_integral((1, 1), 3, f)


@pytest.mark.parametrize("f", [
    example1(35), example2(11, 3, 5), example3(1, 35)[0], refine_fixture(35)])
def test_charpoly_matches_resultant(f, rng):
    """char poly of num(theta) at y equals Res_x(f, y - num(x))."""
    n = ia.pdeg(f)
    for _ in range(3):
        num = tuple(rng.randrange(-40, 41) for _ in range(n))
        coeffs = charpoly(num, f)
        assert coeffs[0] == 1 and len(coeffs) == n + 1
        for y in range(n + 1):
            value = sum(c * y ** (n - k) for k, c in enumerate(coeffs))
            g = ia.psub((y,), num)
            assert value == sylvester_resultant(f, g), (f, num, y)


@pytest.mark.parametrize("f", [
    example1(35), example2(11, 3, 5), example3(1, 35)[0], refine_fixture(35),
    example3(2, 35)[0]], ids=["example1", "example2", "example3_r1",
                              "refine_fixture", "example3_r2"])
def test_charpoly_is_integral_matches_the_unreduced_reference(f):
    """Every basis element num/den is integral and num/(den*N) is not, by
    the reduced-numerator test and by the char poly of num itself."""
    sums = power_sums(f)
    elements = [(N, el) for N, b in global_basis(f).moduli for el in b]
    assert any(el.den_exp == 0 for _, el in elements)
    for N, el in elements:
        den = N ** el.den_exp
        for d, want in ((den, True), (den * N, False)):
            assert charpoly_is_integral_reference(el.num, d, f) is want
            assert charpoly_is_integral(el.num, d, f, sums=sums) is want
    # a nonzero numerator that vanishes modulo den
    N, el = max(elements, key=lambda item: item[1].den_exp)
    den = N ** el.den_exp
    num = tuple(den * c for c in ia.padd(el.num, (1, -1)))
    assert charpoly_is_integral_reference(num, den, f)
    assert charpoly_is_integral(num, den, f)


def test_p_maximal_examples():
    Z2 = power_basis(2)
    assert p_maximal(Z2, (1, 0, 1), 3)
    f = (-25, 0, 1)  # x^2 - 25 has index-5 enlargement
    assert not p_maximal(Z2, f, 5)
    enl = pz_enlarge(Z2, f, 5)
    assert p_maximal(enl, f, 5)
    assert enl.den == 5


def _brute_maximal(lat, f, p):
    """No index-p superlattice of lat is a ring of integral elements (n = 2)."""
    for a in range(p):
        for vec in ([1, a], [0, 1]):
            rows = [[p * x for x in r] for r in lat.rows]
            cand = [sum(v * r[k] for v, r in zip(vec, lat.rows))
                    for k in range(2)]
            rows.append(cand)
            L = IntegerLattice.from_rows(rows, lat.den * p, 2)
            if L == lat:
                continue
            ok_ring = ring_closed(L, f)
            ok_int = all(
                charpoly_is_integral(ia.ptrim(row), L.den, f) for row in L.rows)
            if ok_ring and ok_int:
                return False
    return True


def test_p_maximal_bruteforce_quadratics(rng):
    Z2 = power_basis(2)
    for _ in range(30):
        f = ia.ptrim([rng.randrange(-20, 21), rng.randrange(-20, 21), 1])
        if ia.pdeg(f) != 2 or ia.discriminant(f) == 0:
            continue
        for p in (2, 3, 5, 7):
            assert p_maximal(Z2, f, p) == _brute_maximal(Z2, f, p), (f, p)


def test_project_check_example1():
    f = example1(35)
    rep = sfom(f, 35).rep
    for p in (5, 7):
        report = project_check(rep, f, p)
        assert report["ok"], report
        assert report["groups"] == [1]
        assert report["rho"] == 1


def test_project_check_example3_small():
    N = 17 * 19
    f, _ = example3(1, N)
    rep = sfom(f, N).rep
    for p in (17, 19):
        report = project_check(rep, f, p)
        assert report["ok"], report
        assert sum(report["groups"]) == 2  # 2r with r = 1


def test_normalized_chains_refine_fixture():
    # the prime trees stop once more, at a level with e*f = 1 whose
    # successor has a representative of the same degree; merged into that
    # successor, the chains agree with the composite ones
    f = refine_fixture(35)
    rep = sfom(f, 35).rep
    assert [leaf.order for leaf in rep.leaves] == [2, 2]
    assert sorted(normalized_chain(leaf) for leaf in rep.leaves) == [
        (Fraction(5, 2),), (Fraction(4),)]
    prime5 = om_prime(f, 5).leaves
    assert [leaf.order for leaf in prime5] == [3, 3]
    assert sorted(normalized_chain(leaf) for leaf in prime5) == [
        (Fraction(5, 2),), (Fraction(4),)]
    prime7 = om_prime(f, 7).leaves
    assert sorted(leaf.order for leaf in prime7) == [2, 2, 3]
    assert sorted(normalized_chain(leaf) for leaf in prime7) == [
        (Fraction(5, 2),), (Fraction(4),), (Fraction(4),)]
    for p, groups in ((5, [1, 1]), (7, [1, 2])):
        report = project_check(rep, f, p)
        assert report["ok"], report
        assert sorted(report["groups"]) == groups


def _unmatched(report):
    return not report["ok"] and any(
        "no candidate composite leaf" in d for d in report["details"])


@pytest.mark.parametrize("leaf, level", [(0, 1), (0, 2), (1, 2)])
def test_project_check_rejects_a_perturbed_slope(leaf, level):
    f = refine_fixture(35)
    rep = sfom(f, 35).rep
    rep.leaves[leaf].chain()[level].h += 2
    for p in (5, 7):
        assert _unmatched(project_check(rep, f, p))


def test_project_check_rejects_unscaled_slopes():
    # at N = 5^2 * 7 the prime slopes at 5 are twice the composite ones; a
    # composite tree that carried the prime slopes must fail there
    N = 175
    g = (2, 0, 1)
    f = ia.padd(ia.padd(ia.pmul(g, g), ia.pscale(g, N)), (3 * N * N,))
    rep = sfom(f, N).rep
    report = project_check(rep, f, 5)
    assert report["ok"] and report["rho"] == 2, report
    for leaf in rep.leaves:
        for node in leaf.chain()[1:]:
            node.h *= report["rho"]
    assert _unmatched(project_check(rep, f, 5))


def _perturbed_product(roots, c):
    """prod (x - r) + c: a small c keeps the roots' distances at 35."""
    f = (1,)
    for r in roots:
        f = ia.pmul(f, (-r, 1))
    return ia.padd(f, (c,))


# roots -72*35^2 (one level, slope 2) and -1191*35, 69*35 (a level of slope 1
# with e*f = 1, then slope 1 with f = 2): both leaves normalize to (2,)
TIED = _perturbed_product((-88200, -41685, 2415), 4 * 35 ** 7)
# roots -40493, -42803, -45253, -85818, all -33 mod 35: two leaves with the
# same root, normalized and raw chains, of residue degrees 2 and 1
POOLED = _perturbed_product((-40493, -85818, -42803, -45253), 2 * 35 ** 7)


def _raw_chain(leaf):
    return [(lvl.h, lvl.e) for lvl in leaf.chain()[1:]]


def test_project_check_breaks_ties_by_the_raw_chain():
    rep = sfom(TIED, 35).rep
    assert [normalized_chain(leaf) for leaf in rep.leaves] == [(2,), (2,)]
    assert [_raw_chain(leaf) for leaf in rep.leaves] == [
        [(1, 1), (1, 1)], [(2, 1)]]
    for p in (5, 7):
        report = project_check(rep, TIED, p)
        assert report["ok"] and report["groups"] == [2, 1], report


def test_project_check_pools_leaves_no_chain_tells_apart(monkeypatch):
    rep = sfom(POOLED, 35).rep
    a, b, _ = rep.leaves
    assert a.trunc(0) is b.trunc(0) and _raw_chain(a) == _raw_chain(b)
    assert (a.f_prod(), b.f_prod()) == (2, 1)
    for p in (5, 7):
        report = project_check(rep, POOLED, p)
        assert report["ok"] and report["groups"] == [3, 3, 1], report
    # the pool is checked as a whole: one prime leaf less is a failure
    prime7 = om_prime(POOLED, 7)
    assert _raw_chain(prime7.leaves[0]) == _raw_chain(a)
    del prime7.leaves[0]
    monkeypatch.setattr(validate.op, "om_prime", lambda f, p: prime7)
    report = project_check(rep, POOLED, 7)
    assert report["details"] == ["leaf 0+1: residue mass 2 vs 3, e {1}"]


def test_resultant_valuation_examples():
    f = example1(35)
    assert resultant_valuation_check(f, (35, 0, 1), 5, [(4, Fraction(7, 4))])
    assert resultant_valuation_check(f, (35, 0, 1), 7, [(4, Fraction(7, 4))])
    assert resultant_valuation_check(f, (1,), 5, [])
    assert resultant_valuation_check(f, (35,), 5, [(4, Fraction(1))])
    assert not resultant_valuation_check(f, (35, 0, 1), 5, [(4, Fraction(1))])


def test_quotient_value_bounds_example1():
    f = example1(35)
    rep = sfom(f, 35).rep
    leaf = rep.leaves[0]
    for p in (5, 7):
        rows = quotient_value_bound(f, leaf, p, 1)
        assert rows, "expected at least one nonzero quotient value"
        for (i, j, H, val, bound) in rows:
            assert Fraction(val) >= bound


def test_order_discriminant_and_index():
    f = example1(35)
    lat = global_basis(f).merged
    idx = lat.index_over_power_basis()
    assert ia.discriminant(f) == idx * idx * order_discriminant(lat, f)


@pytest.mark.parametrize(
    "f", [example1(35), refine_fixture(35), TIED, POOLED],
    ids=["example1", "refine_fixture", "raw_chain_tie", "pooled_leaves"])
def test_verify_report_end_to_end(f):
    checks = verify_report(f, known_primes=[5, 7])
    assert checks and all(c["status"] == "pass" for c in checks), checks
    names = {c["check"] for c in checks}
    assert {"ring-closed", "index-discriminant", "p-maximal-5",
            "p-maximal-7"} <= names


def test_verify_report_builds_each_composite_tree_once(monkeypatch):
    calls = []

    def counting_run_tree(f, N, *args, **kwargs):
        calls.append(N)
        return sfom(f, N, *args, **kwargs)

    monkeypatch.setattr(validate, "run_tree", counting_run_tree)
    checks = verify_report(example1(35), known_primes=[5, 7])
    assert calls == [35]
    assert [(c["check"], c["status"]) for c in checks] == [
        ("basis-count", "pass"), ("ring-closed", "pass"),
        ("index-discriminant", "pass"), ("elements-integral", "pass"),
        ("p-maximal-5", "pass"), ("project-35-5", "pass"),
        ("p-maximal-7", "pass"), ("project-35-7", "pass")]


def test_verify_report_computes_the_discriminant_once(monkeypatch):
    # global_basis computes disc f for D; the index identity reuses it
    calls, discriminant = [], ia.discriminant

    def counting_discriminant(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(ia, "discriminant", counting_discriminant)
    checks = verify_report(example1(35))
    assert calls == [example1(35)]
    assert all(c["status"] == "pass" for c in checks), checks


@pytest.mark.parametrize("primes", [[], [5], [7, 5], [5, 7]])
def test_verify_report_builds_one_product_table(monkeypatch, primes):
    tables, sums = [], []
    product_table, power_sums_ = validate.product_table, validate.power_sums

    def counting_table(lat, f, **kwargs):
        tables.append(lat)
        return product_table(lat, f, **kwargs)

    def counting_sums(f):
        sums.append(f)
        return power_sums_(f)

    monkeypatch.setattr(validate, "product_table", counting_table)
    monkeypatch.setattr(validate, "power_sums", counting_sums)
    checks = verify_report(example1(35), known_primes=primes)
    assert len(tables) == 1 and len(sums) == 1
    assert len(checks) == 4 + 2 * len(primes)
    assert all(c["status"] == "pass" for c in checks), checks


def _checks_one_by_one(f, D, primes):
    """The report of `verify_report`, built from the public oracles."""
    def check(name, ok, details=""):
        return {"check": name, "status": "pass" if ok else "fail",
                "details": details}

    result = global_basis(f, D)
    lat = result.merged
    out = [check("basis-count", all(len(b) == ia.pdeg(f)
                                    for _, b in result.moduli)),
           check("ring-closed", ring_closed(lat, f)),
           check("index-discriminant", index_disc_identity(lat, f)),
           check("elements-integral", all(
               charpoly_is_integral(el.num, N ** el.den_exp, f)
               for N, b in result.moduli for el in b))]
    for p in primes:
        out.append(check(f"p-maximal-{p}", p_maximal(lat, f, p)))
        for N, _ in result.moduli:
            if N % p == 0 and N != p:
                rp = project_check(sfom(f, N).rep, f, p)
                out.append(check(f"project-{N}-{p}", rp["ok"],
                                 "; ".join(rp["details"])))
    return out


@pytest.mark.parametrize("f, D, primes", [
    (example1(35), None, [5, 7]),
    (example2(11, 3, 5), None, [11, 3]),
    (example3(1, 35)[0], None, [7, 5]),
    (refine_fixture(35), None, [5, 7]),
    (example1(35), 7, [5, 7]),  # not maximal at 5
    (example3(1, 35)[0], 5, [5, 7]),  # not maximal at 7
], ids=["example1", "example2", "example3_r1", "refine_fixture",
        "example1_D7", "example3_r1_D5"])
def test_verify_report_matches_the_oracles_one_by_one(f, D, primes):
    checks = verify_report(f, D, primes)
    assert checks == _checks_one_by_one(f, D, primes)
    assert (D is None) == all(c["status"] == "pass" for c in checks)


def test_ring_closed_rejects_a_lattice_that_is_no_ring():
    # Z + Z*theta/2 for theta^2 = -1: (theta/2)^2 = -1/4 leaves the lattice
    f = (1, 0, 1)
    lat = IntegerLattice.from_rows([[2, 0], [0, 1]], 2, 2)
    coords, _ = validate.product_table(lat, f)
    assert coords[0][0] is not None and coords[1][1] is None
    assert not ring_closed(lat, f)
    assert not ring_closed(lat, f, products=(coords, None))
    with pytest.raises(ValueError, match="outside the lattice"):
        p_maximal(lat, f, 2)


@pytest.mark.parametrize("p", [0, 1, 6])
def test_p_maximal_rejects_non_primes(p):
    Z2 = power_basis(2)
    with pytest.raises(ValueError):
        pz_enlarge(Z2, (1, 0, 1), p)
    with pytest.raises(ValueError):
        p_maximal(Z2, (1, 0, 1), p)


def test_random_fields_end_to_end(rng):
    # smaller cousin of the acceptance sweep
    from conftest import is_irreducible_over_z
    done = 0
    while done < 8:
        n = rng.randrange(2, 5)
        f = ia.ptrim([rng.randrange(-20, 21) for _ in range(n)] + [1])
        if ia.pdeg(f) != n or not is_irreducible_over_z(f):
            continue
        result = global_basis(f)
        lat = result.merged
        assert ring_closed(lat, f)
        assert index_disc_identity(lat, f)
        for p in sorted(pollard_factor(ia.discriminant(f))):
            assert p_maximal(lat, f, p), (f, p)
        done += 1
