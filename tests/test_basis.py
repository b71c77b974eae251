import importlib
import json
import math
import random
from collections import Counter
from itertools import product

import pytest

from conftest import (basis_vectors, charpoly_is_integral, example1,
                      example2, example3, from_elements, hnf_merge,
                      hnf_rows_reference, pollard_factor, power_basis,
                      refine_fixture)
from sfom import intarith as ia
from sfom import sftypes as st
from sfom.basis import (BasisElement, IntegerLattice, _merge_row_groups,
                        global_basis, hnf_rows, n_integral_basis,
                        order_zero_basis, terminal_basis)
from sfom.sfom import ReducibleInput, sfom
from sfom.validate import index_disc_identity, mul_mod, p_maximal, ring_closed

sfom_module = importlib.import_module("sfom.sfom")


def test_hnf_rows_canonical():
    assert hnf_rows([[2, 1], [0, 3]], 2, 6) == [[2, 1], [0, 3]]
    assert hnf_rows([[1, 5], [0, 3]], 2, 3) == [[1, 2], [0, 3]]
    # order of generators never matters; 20 = |det| keeps the lattice
    rows = [[4, 1, 0], [6, 0, 1], [0, 2, 2]]
    a = hnf_rows([r[:] for r in rows], 3, 20)
    b = hnf_rows([r[:] for r in reversed(rows)], 3, 20)
    assert a == b == hnf_rows_reference(rows, 3)
    # the modulus rows complete a rank-deficient or empty row set
    assert hnf_rows([[1, 0, 0], [0, 1, 0]], 3, 5) == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
    assert hnf_rows([], 2, 4) == [[4, 0], [0, 4]]


def test_hnf_rows_matches_the_remainder_swap_reference():
    # small random matrices, rank-deficient and empty ones included: the
    # reference's modular path and its plain path on the rows plus the
    # modulus rows modulus * e_j agree with hnf_rows
    rng = random.Random(6)
    short = empty = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(n)]
                for _ in range(rng.randint(0, 8))]
        modulus = rng.randint(1, 50)
        want = hnf_rows_reference(rows, n, modulus)
        extended = rows + [[modulus * (i == j) for i in range(n)]
                           for j in range(n)]
        assert hnf_rows_reference(extended, n) == want
        before = [row[:] for row in rows]
        assert hnf_rows(rows, n, modulus) == want
        assert rows == before
        short += len(rows) < n
        empty += not rows
    assert short > 300 and empty > 100


def _two_stage_rows(moduli, n):
    """(rows, den): the merge rows built in two stages, each element scaled
    by N^(k - e) over its group's N^k, k the largest den_exp of the group,
    and each group's rows, reduced modulo N^k, scaled by den / N^k, with
    den the lcm of the N^k."""
    groups = []
    for N, basis in moduli:
        k = max(el.den_exp for el in basis)
        groups.append(([[N ** (k - el.den_exp) * x for x in el.num]
                        + [0] * (n - len(el.num)) for el in basis], N ** k))
    den = math.lcm(*(d for _, d in groups))
    return [[den // d * (x % d) for x in row]
            for rows, d in groups for row in rows], den


def _merge_matches_the_reference(result, n, rng):
    """_merge_row_groups of the local bases is the reference HNF of the
    two-stage rows over their den, with common factors cancelled; hnf_rows
    gives that HNF from any row order and leaves the caller's rows alone."""
    rows, den = _two_stage_rows(result.moduli, n)
    want = hnf_rows_reference(rows, n, den)
    merged = _merge_row_groups(result.moduli, n)
    assert merged == result.merged
    scale = den // merged.den
    assert [[scale * x for x in row] for row in merged.rows] == want
    # one more row that vanishes modulo den changes nothing
    rows.append([den * x for x in rows[-1]])
    for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
        before = [row[:] for row in order]
        assert hnf_rows(order, n, den) == want
        assert order == before


def test_hnf_rows_matches_the_reference_on_a_merge():
    # the one-group merges of example3(r, N) at D = N, r = 2..4
    N = 10007 * 10009
    for r in (2, 3, 4):
        f, _ = example3(r, N)
        result = global_basis(f, D=N)
        assert len(result.moduli) == 1
        _merge_matches_the_reference(result, ia.pdeg(f), random.Random(r))
    # merges shaped like random_fields: several groups over coprime
    # denominators, so every last column repeats, and integral elements
    rng = random.Random(3)
    fields = 0
    while fields < 3:
        n = rng.randint(8, 12)
        f = tuple(rng.randint(-100, 100) for _ in range(n)) + (1,)
        try:
            result = global_basis(f)
        except (ValueError, ReducibleInput):
            continue
        if len(result.moduli) < 2 or result.merged.den == 1:
            continue
        fields += 1
        assert any(el.den_exp == 0 for _, b in result.moduli for el in b)
        _merge_matches_the_reference(result, n, rng)


def _om_rows(rng, N, n, k):
    """Lower-triangular rows N^(k - e_L) * (monic num mod N^e_L), deg num = L,
    with 0 <= e_0 <= e_1 <= ... <= k: the shape of an OM basis over N^k."""
    rows, e = [], 0
    for L in range(n):
        e = min(k, e + rng.choice((0, 0, 1, 2)))
        num = [rng.randrange(N ** e) for _ in range(L)] + [1]
        rows.append([N ** (k - e) * x for x in num] + [0] * (n - L - 1))
    return rows


def _sparse_hnf_case(kind, rng):
    """(rows, n, modulus) of one seeded case of the given kind."""
    N = rng.choice((3, 35, 143, 10007 * 10009, 2 ** 61 - 1))
    n, k = rng.randint(2, 10), rng.randint(1, 4)
    if kind == "two_coprime_groups":
        M = rng.choice((2, 17, 65537))  # coprime to every N above
        k2 = rng.randint(1, 3)
        den = N ** k * M ** k2
        rows = [[M ** k2 * x for x in row] for row in _om_rows(rng, N, n, k)]
        rows += [[N ** k * x for x in row] for row in _om_rows(rng, M, n, k2)]
        return rows, n, den
    rows, modulus = _om_rows(rng, N, n, k), N ** k
    if kind == "shared_last_columns":  # more rows ending where others end
        for _ in range(rng.randint(1, n)):
            row = rng.choice(rows)
            last = max(j for j, x in enumerate(row) if x)
            rows.append([rng.randrange(modulus) if j < last else x
                         for j, x in enumerate(row)])
    elif kind == "off_range_entries":  # negatives, >= modulus, vanishing rows
        rows = [[x + modulus * rng.randint(-3, 3) for x in row]
                for row in rows]
        rows = [[-x for x in row] if rng.random() < 0.3 else row
                for row in rows]
        rows += [[modulus * rng.randint(-2, 2) for _ in range(n)]
                 for _ in range(2)]
    elif kind == "one_column":
        rows, n = [[x] for x in rng.sample(range(-50, 50), 3)], 1
        modulus = rng.choice((1, modulus))
    elif kind == "modulus_one":
        modulus = 1
    return rows, n, modulus


@pytest.mark.parametrize("kind", ["om_rows", "shared_last_columns",
                                  "two_coprime_groups", "off_range_entries",
                                  "one_column", "modulus_one"])
def test_hnf_rows_on_om_shaped_rows(kind):
    # the sparse rows give the reference HNF from any row order, and the
    # caller's rows come back unchanged
    rng = random.Random(kind)
    for _ in range(60):
        rows, n, modulus = _sparse_hnf_case(kind, rng)
        rng.shuffle(rows)
        want = hnf_rows_reference(rows, n, modulus)
        before = [row[:] for row in rows]
        assert hnf_rows(rows, n, modulus) == want, (rows, n, modulus)
        assert rows == before
        if modulus == 1:
            assert want == [[int(i == j) for j in range(n)] for i in range(n)]


def test_lattice_membership(rng):
    for _ in range(30):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(4)]
        lat = IntegerLattice.from_rows(rows, 2, 3)
        for _ in range(10):
            coeffs = [rng.randrange(-3, 4) for _ in range(3)]
            vec = [sum(c * row[k] for c, row in zip(coeffs, lat.rows))
                   for k in range(3)]
            assert lat.solve(vec, lat.den) is not None


def test_hnf_merge_examples():
    f = (1, 0, 1)
    L1 = from_elements(
        [BasisElement((1,), 0), BasisElement((0, 1), 0)], f, 35)
    assert hnf_merge([L1, L1], f) == L1
    fe = example1(35)
    rep = sfom(fe, 35).rep
    lat = from_elements(n_integral_basis(rep, fe, 35), fe, 35)
    assert hnf_merge([lat, power_basis(4)], fe) == lat


def test_hnf_merge_coprime_denominators_bruteforce():
    # lattice sum with coprime denominators matches residue patching; each
    # lattice is spanned by Z^2 and the vectors named
    a = IntegerLattice.from_rows([[3, 1], [0, 3]], 3, 2)    # (1, 1/3), (0, 1)
    b = IntegerLattice.from_rows([[5, 0], [2, 5]], 5, 2)    # (1, 0), (2/5, 1)
    merged = hnf_merge([a, b], (1, 0, 1))
    assert merged.den == 15
    # brute force: all sums x + y with small coordinates, check membership
    for ca in product(range(-2, 3), repeat=2):
        for cb in product(range(-2, 3), repeat=2):
            vec = [15 * sum(c * r[k] for c, r in zip(ca, basis_vectors(a)))
                   + 15 * sum(c * r[k] for c, r in zip(cb, basis_vectors(b)))
                   for k in range(2)]
            vec = [int(x) for x in vec]
            assert merged.solve(vec, 15) is not None


def test_solve_exhaustive_mod_denominator():
    # the merged lattice of the brute-force test: every vec/15 with vec in
    # [0, 15)^2 is a member exactly when adding it leaves the HNF unchanged,
    # and a member's coordinates rebuild it
    a = IntegerLattice.from_rows([[3, 1], [0, 3]], 3, 2)
    b = IntegerLattice.from_rows([[5, 0], [2, 5]], 5, 2)
    lat = hnf_merge([a, b], (1, 0, 1))
    members = 0
    for vec in product(range(15), repeat=2):
        rows = [[15 * x for x in row] for row in lat.rows]
        rows.append([lat.den * x for x in vec])
        member = IntegerLattice.from_rows(rows, 15 * lat.den, 2) == lat
        coords = lat.solve(vec, 15)
        assert (coords is not None) == member
        if member:
            members += 1
            assert [15 * sum(c * row[k] for c, row in zip(coords, lat.rows))
                    for k in range(2)] == [lat.den * x for x in vec]
    assert 1 < members < 225


def _solve_hnf_reference(lat, vec):
    """Coordinates of vec (in the den^2-scaled power basis) over the HNF
    rows, None off the lattice; the product solver of the oracles before
    IntegerLattice.solve."""
    out = [0] * lat.n
    v = list(vec)
    for j in range(lat.n):
        piv = lat.rows[j][j] * lat.den
        if v[j] % piv:
            return None
        q = v[j] // piv
        out[j] = q
        if q:
            for i in range(j, lat.n):
                v[i] -= q * lat.den * lat.rows[j][i]
    return None if any(v) else out


def test_solve_matches_the_product_solver():
    f = example1(35)
    lat = global_basis(f).merged
    rows = [ia.ptrim(row) for row in lat.rows]
    for i, j in product(range(lat.n), repeat=2):
        prod = mul_mod(rows[i], rows[j], f)
        vec = [prod[k] if k < len(prod) else 0 for k in range(lat.n)]
        want = _solve_hnf_reference(lat, vec)
        assert want is not None
        assert lat.solve(vec, lat.den ** 2) == want
        # a 1/den^2 shift leaves the lattice, whose denominator is den > 1
        vec[i] += 1
        assert lat.solve(vec, lat.den ** 2) is None
        assert _solve_hnf_reference(lat, vec) is None


def test_order_zero_basis_examples():
    f = (1, 0, 1)
    rep = sfom(f, 35).rep
    basis = n_integral_basis(rep, f, 35)
    assert sorted(el.num for el in basis) == [(0, 1), (1,)]
    # t = y with f(0) = 0 mod N: the zero-order block is the single q(theta)
    f2 = ia.padd(ia.pmul((0, 1), ia.pmul((1, 1), (1, 1))), (35,))
    rep2 = sfom(f2, 35).rep
    t0 = rep2.order_zero_t()
    assert t0 is not None and t0.degree() == 1
    block = order_zero_basis(t0, f2)
    q, _ = ia.pdivmod_monic(f2, (0, 1))
    assert [el.num for el in block] == [q]


def test_terminal_basis_example1():
    N = 35
    f = example1(N)
    rep = sfom(f, N).rep
    lat = from_elements(n_integral_basis(rep, f, N), f, N)
    want = from_elements([
        BasisElement((1,), 0), BasisElement((0, 1), 0),
        BasisElement((0, 0, 1), 1), BasisElement((0, N, 0, 1), 2),
    ], f, N)
    assert lat == want


def test_terminal_basis_example2():
    p, r, m = 11, 3, 5
    f = example2(p, r, m)
    rep = sfom(f, p).rep
    lat = from_elements(n_integral_basis(rep, f, p), f, p)
    coef = list(f)
    want_els = []
    for k in range(r):
        num = tuple(coef[2 * r - 2 * k:])
        want_els.append(BasisElement(num, k))
        want_els.append(BasisElement(ia.pshift(num, 1), k))
    assert lat == from_elements(want_els, f, p)


def test_needs_squarefree_gate():
    # ramified tree over a modulus with a hidden square: the basis is built
    # as if N were squarefree, which global_basis makes sure of first
    N, f = 175, (350, 0, 1)
    rep = sfom(f, N).rep
    assert rep.ramified
    basis = n_integral_basis(rep, f, N)
    assert len(basis) == 2


def test_global_basis_strips_small_primes_and_splits():
    f = (350, 0, 1)  # disc = -1400 = -2^3 * 5^2 * 7
    result = global_basis(f)
    moduli = [N for N, _ in result.moduli]
    assert 2 in moduli          # small-prime engine
    assert set(moduli) >= {2, 5}
    lat = result.merged
    assert ring_closed(lat, f)
    assert index_disc_identity(lat, f)
    for p in (2, 5, 7):
        assert p_maximal(lat, f, p)


def test_global_basis_example1():
    N = 35
    f = example1(N)
    result = global_basis(f)
    moduli = [n for n, _ in result.moduli]
    assert 35 in moduli or {5, 7} <= set(moduli)
    lat = result.merged
    assert ring_closed(lat, f)
    assert index_disc_identity(lat, f)
    for p in sorted(pollard_factor(ia.discriminant(f))):
        assert p_maximal(lat, f, p), p


def test_global_basis_power_basis_field():
    # squarefree discriminant after the small primes: merged order is Z[theta]
    f = (1, 1, 0, 1)  # disc(x^3 + x + 1) = -31
    result = global_basis(f)
    assert result.merged == power_basis(3)


def test_global_basis_without_moduli():
    # nothing is left of D once |D| = 1, or once its only prime 3 <= n is
    # stripped with exponent 1: the merge over no moduli is Z[theta]
    for f, D in (((1, 0, 1), 1), ((1, 0, 1), -1), ((2, 0, 0, 1), -3)):
        result = global_basis(f, D=D)
        assert result.moduli == []
        assert result.merged == power_basis(ia.pdeg(f))


def test_global_basis_idempotent_serialization():
    f = example1(35)
    a = json.dumps(global_basis(f).to_obj())
    b = json.dumps(global_basis(f).to_obj())
    assert a == b


def test_basis_after_refine_is_maximal():
    f = refine_fixture(35)
    result = global_basis(f)
    lat = result.merged
    assert ring_closed(lat, f)
    assert index_disc_identity(lat, f)
    for p in sorted(pollard_factor(ia.discriminant(f))):
        assert p_maximal(lat, f, p), p


def test_elements_integral_with_values_below_one():
    # every local basis element is integral, and scaling by 1/p breaks
    # integrality for each prime of the modulus (the value sits in [0, 1))
    N = 35
    f = example1(N)
    rep = sfom(f, N).rep
    basis = n_integral_basis(rep, f, N)
    assert len(basis) == ia.pdeg(f)
    for el in basis:
        den = N ** el.den_exp
        assert charpoly_is_integral(el.num, den, f)
        for p in (5, 7):
            assert not charpoly_is_integral(el.num, den * p, f)


def test_user_supplied_partial_discriminant():
    # a user D standing in for a partial factorization still works
    f = example1(35)
    result = global_basis(f, D=35 ** 9)
    lat = result.merged
    for p in (5, 7):
        assert p_maximal(lat, f, p)


def test_global_basis_rejects_a_zero_D():
    # a given D of 0 is the caller's mistake, not a fault of the squarefree f
    with pytest.raises(ValueError, match="D must be nonzero"):
        global_basis(example1(35), D=0)
    with pytest.raises(ValueError, match="not squarefree"):
        global_basis(ia.pmul((1, 0, 1), (1, 0, 1)))


def test_global_basis_expands_f_once_per_representative(monkeypatch):
    # the tree keeps each expansion of f for the basis stage, so neither the
    # residuals nor the level quotients expand f by the same g again
    N = 10007 * 10009
    f, _ = example3(2, N)
    seen = Counter()
    expand = st.expand

    def counting(a, g, *rest):
        seen[ia.ptrim(a), ia.ptrim(g)] += 1
        return expand(a, g, *rest)

    monkeypatch.setattr(st, "expand", counting)
    global_basis(f, D=N)
    of_f = {g: k for (a, g), k in seen.items() if a == f}
    assert len(of_f) >= 2
    assert max(of_f.values()) == 1, of_f


def _fields_of_degree_at_most_12():
    """g1^k1 * g2^k2 * c + N * h at N = 10007 * 10009, with g1, g2 linear
    or quadratic and c monic of degree 0-2, and random monic fields."""
    N = 10007 * 10009
    rng = random.Random(24)
    out = []
    for _ in range(12):
        f = (1,)
        for k in (rng.randint(2, 3), rng.randint(2, 3), 1):
            g = tuple(rng.randint(-9, 9) for _ in range(rng.randint(
                0 if k == 1 else 1, 2))) + (1,)
            f = ia.pmul(f, ia.ppow(g, k))
        h = tuple(rng.randint(-3, 3) for _ in range(ia.pdeg(f)))
        if ia.pdeg(f) <= 12:
            out.append((ia.padd(f, ia.pscale(h, N)), N))
    for n in range(4, 13):
        out.append((tuple(rng.randint(-30, 30) for _ in range(n)) + (1,),
                    None))
    return out


def test_trees_expand_f_through_the_principal_part(monkeypatch):
    # every processed node keeps a_0..a_omega and q_1..q_(omega+1) of the
    # expansion of f by its representative; the points after omega lie
    # strictly above the line of every side, so the sides, the residuals
    # and the quotients the basis reads are those of the whole expansion
    reps = []
    check = sfom_module._check_masses

    def recording(rep):
        check(rep)
        reps.append(rep)

    monkeypatch.setattr(sfom_module, "_check_masses", recording)
    N = 10007 * 10009
    cases = [(example1(N), N), (refine_fixture(N), N)]
    cases += [(example3(r, N)[0], N) for r in range(1, 6)]
    for f, D in cases + _fields_of_degree_at_most_12():
        try:
            global_basis(f, D)
        except ReducibleInput:
            continue
    seen, cut = set(), 0
    for rep in reps:
        for leaf in rep.leaves:
            chain = leaf.chain()
            for node, child in zip(chain, chain[1:]):
                if node in seen:
                    continue
                seen.add(node)
                full = st.expand(rep.f, child.g)
                w = node.omega + 1
                assert node.f_exp == st.Expansion(full.coeffs[:w],
                                                  full.quotients[:w])
                cut += len(full.coeffs) > w
                points = st.cloud(node, full.coeffs)
                sides = st.NewtonPolygon.from_cloud(points).sides
                assert sides == st.NewtonPolygon.from_cloud(
                    st.cloud(node, node.f_exp.coeffs)).sides
                for side in sides:
                    ws = [side.e * u + side.h * s for s, u in points]
                    assert all(wt > min(ws) for (s, _), wt in zip(points, ws)
                               if s > node.omega)
    assert len(seen) >= 40 and cut >= 20, (len(seen), cut)


def test_global_basis_example2_maximal():
    f = example2(11, 3, 5)
    result = global_basis(f)
    lat = result.merged
    assert ring_closed(lat, f)
    assert index_disc_identity(lat, f)
    for p in sorted(pollard_factor(ia.discriminant(f))):
        assert p_maximal(lat, f, p), p


def test_example3_basis_maximal():
    # 36 elements from the two-level slope data, maximal at both primes
    from conftest import example3
    N = 37 * 41
    f, _ = example3(3, N)
    rep = sfom(f, N).rep
    basis = n_integral_basis(rep, f, N)
    assert len(basis) == 36
    merged = hnf_merge([from_elements(basis, f, N)], f)
    for p in (37, 41):
        assert p_maximal(merged, f, p)


def test_unramified_tree_over_nonsquarefree_modulus():
    # the basis hypothesis also holds with every type unramified, even when
    # the modulus hides a square; and prime slopes scale by ord_p(N)
    from sfom.validate import project_check
    N = 175  # 5^2 * 7
    g = (2, 0, 1)
    f = ia.padd(ia.padd(ia.pmul(g, g), ia.pscale(g, N)), (3 * N * N,))
    rep = sfom(f, N).rep
    assert not rep.ramified
    basis = n_integral_basis(rep, f, N)  # gate passes without assuming squarefree
    assert len(basis) == 4
    merged = hnf_merge([from_elements(basis, f, N)], f)
    for p in (5, 7):
        assert p_maximal(merged, f, p)
    assert project_check(rep, f, 5)["rho"] == 2
    assert project_check(rep, f, 5)["ok"]


def test_products_end_in_a_basis_or_a_certified_factor():
    # the reducibility flags miss a product without rational roots; the tree
    # either still yields a basis or certifies a proper factor of f
    rng = random.Random(5)

    def monic():  # degree 2 to 4, coefficients in [-5, 5]
        return (*(rng.randint(-5, 5) for _ in range(rng.randint(2, 4))), 1)

    outcomes = {"basis": 0, "factor": 0}
    for _ in range(200):
        f = ia.pmul(monic(), monic())
        if ia.discriminant(f) == 0:
            continue
        try:
            result = global_basis(f)
        except ReducibleInput as exc:
            _, r = ia.pdivmod_monic(f, exc.factor)
            assert 0 < ia.pdeg(exc.factor) < ia.pdeg(f) and not ia.ptrim(r)
            outcomes["factor"] += 1
        else:
            assert all(len(b) == ia.pdeg(f) for _, b in result.moduli)
            outcomes["basis"] += 1
    assert min(outcomes.values()) > 0
