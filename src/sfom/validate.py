"""Independent oracles: per-prime projection, valuation identities, maximality.

These routines are the artifact's ground truth at test scale.  They are
library code (not test-only) so the command line can expose a `verify`
subcommand; they may factor nothing themselves, but accept externally known
primes as inputs.
"""

from __future__ import annotations

from fractions import Fraction

from . import basis as bs
from . import intarith as ia
from . import omprime as op
from .sfom import SFOMRep, sfom as run_tree
from . import sftypes as st
from .intarith import IntPoly


# ---------------------------------------------------------------------------
# per-prime projection of a composite tree


def project_check(rep: SFOMRep, f: IntPoly, p: int) -> dict:
    """Compare a composite tree with the prime tree at p | N.

    Checks slope scaling (prime slopes are ord_p(N) times composite slopes),
    ramification bookkeeping e_P = e_1...e_r, and that the prime leaves
    partition into groups of total residue degree f_0...f_r, one group per
    composite leaf.  Returns a report dict with an "ok" flag.
    """
    N = rep.N
    if N % p:
        raise ValueError("p does not divide N")
    rho = ia.ord_n(N, p)[0]
    prep = op.om_prime(f, p)
    report = {"p": p, "rho": rho, "ok": True, "details": []}

    def profiles(tree, kind):
        out = []
        for leaf in tree.leaves:
            if st.ord_ty(leaf, f) != 1:
                report["ok"] = False
                report["details"].append(f"{kind} leaf without multiplicity one")
            chain = leaf.chain()
            out.append({
                "order": leaf.order,
                "slopes": tuple((lvl.h, lvl.e) for lvl in chain[1:]),
                "root_lift": st.lift_order_zero(chain[0].t),
                "e": leaf.e_prod(),
                "f": leaf.f_prod(),
            })
        return out

    comp = profiles(rep, "composite")
    prime_leaves = profiles(prep, "prime")

    def matches(group_leaf, pleaf) -> bool:
        if pleaf["order"] != group_leaf["order"]:
            return False
        want = tuple(
            (rho * h // ia.math.gcd(rho * h, e), e // ia.math.gcd(rho * h, e))
            for h, e in group_leaf["slopes"])
        if pleaf["slopes"] != want:
            return False
        # the prime root modulus must divide the reduction of the composite one
        lift = group_leaf["root_lift"]
        tower = op.AlgebraTower(p)
        red = tower.p_from_int_poly(lift)
        proot = tower.p_from_int_poly(pleaf["root_lift"])
        if not red.coeffs:
            return False
        _, rem = tower.p_divmod_monic(red, proot)
        return not rem.coeffs

    assignment: list[list[int]] = [[] for _ in comp]
    unassigned = []
    for k, pleaf in enumerate(prime_leaves):
        cands = [i for i, g in enumerate(comp) if matches(g, pleaf)]
        if len(cands) == 1:
            assignment[cands[0]].append(k)
        else:
            unassigned.append((k, cands))
    ok = _complete_assignment(comp, prime_leaves, assignment, unassigned)
    if not ok:
        report["ok"] = False
        report["details"].append("no consistent grouping of prime leaves")
        return report
    for i, g in enumerate(comp):
        got_f = sum(prime_leaves[k]["f"] for k in assignment[i])
        es = {prime_leaves[k]["e"] for k in assignment[i]}
        expect_e = g["e"]
        if rho > 1:
            expect_e = expect_e // ia.math.gcd(rho, expect_e)
        if got_f != g["f"] or es != {expect_e}:
            report["ok"] = False
            report["details"].append(
                f"leaf {i}: residue mass {got_f} vs {g['f']}, e {es}")
    report["groups"] = [len(a) for a in assignment]
    return report


def _complete_assignment(comp, prime_leaves, assignment, unassigned) -> bool:
    if not unassigned:
        return True
    ks = [k for k, _ in unassigned]
    cand_sets = [c for _, c in unassigned]
    # small search: place ambiguous leaves so the residue masses work out
    def rec(idx, current):
        if idx == len(ks):
            for i, g in enumerate(comp):
                got = sum(prime_leaves[k]["f"] for k in assignment[i])
                got += sum(prime_leaves[ks[j]]["f"]
                           for j in range(len(ks)) if current[j] == i)
                if got != g["f"]:
                    return False
            for j, k in enumerate(ks):
                assignment[current[j]].append(k)
            return True
        for c in cand_sets[idx]:
            if rec(idx + 1, current + [c]):
                return True
        return False

    return rec(0, [])


# ---------------------------------------------------------------------------
# valuation identities through resultants


def resultant_valuation_check(f: IntPoly, g: IntPoly, p: int,
                              contributions) -> bool:
    """Exact identity sum(e_P f_P * w_P(g(theta))) = ord_p(Res(f, g)).

    `contributions` is a list of (e_P * f_P, w_P) pairs with w_P a Fraction;
    the per-prime values come from prime-tree data.
    """
    res = ia.resultant(f, g)
    if res == 0:
        raise ValueError("resultant vanishes: g shares a factor with f")
    lhs = sum(Fraction(m) * w for m, w in contributions)
    return Fraction(ia.ord_n(res, p)[0]) == lhs


def quotient_value_bound(f: IntPoly, leaf: st.SFType, p: int, rho: int) -> list:
    """For every level quotient of a leaf: (H, ord_p(Res(f, q)), n * rho * H).

    The reported resultant valuation is >= n * rho * H exactly when the
    quotient bound holds; callers assert that.
    """
    n = ia.pdeg(f)
    out = []
    for i, j, q, H in bs.level_quotients(leaf, leaf.fdim):
        if H == 0:
            continue
        val = ia.ord_n(ia.resultant(f, q), p)[0]
        out.append((i, j, H, val, Fraction(n * rho) * H))
    return out


# ---------------------------------------------------------------------------
# ring structure, traces, maximality


def power_sums(f: IntPoly) -> list[int]:
    """Traces of theta^k for 0 <= k <= 2n-2, by Newton's identities."""
    n = ia.pdeg(f)
    a = list(f)
    s = [n]
    for k in range(1, 2 * n - 1):
        total = 0
        for i in range(1, min(k - 1, n) + 1):
            total += a[n - i] * s[k - i]
        if k <= n:
            total += k * a[n - k]
        s.append(-total)
    return s


def trace_of(num: IntPoly, f: IntPoly, sums: list[int]) -> int:
    return sum(c * sums[k] for k, c in enumerate(num))


def mul_mod(a: IntPoly, b: IntPoly, f: IntPoly) -> IntPoly:
    _, r = ia.pdivmod_monic(ia.pmul(a, b), f)
    return r


def _product_coords(lat: bs.IntegerLattice, f: IntPoly):
    """coords(i, j): integer coordinates of w_i * w_j over the lattice basis
    w, or None when the product leaves the lattice."""
    rows = [ia.ptrim(row) for row in lat.rows]

    def coords(i, j):
        prod = mul_mod(rows[i], rows[j], f)
        vec = [prod[k] if k < len(prod) else 0 for k in range(lat.n)]
        return lat.solve(vec, lat.den * lat.den)
    return coords


def ring_closed(lat: bs.IntegerLattice, f: IntPoly) -> bool:
    """Every product of two basis vectors stays inside the lattice."""
    coords = _product_coords(lat, f)
    return all(coords(i, j) is not None
               for i in range(lat.n) for j in range(i, lat.n))


def order_discriminant(lat: bs.IntegerLattice, f: IntPoly) -> int:
    """disc of the order spanned by the lattice, via the exact trace form.

    The integer Gram matrix of the numerators is den^2 times the trace form,
    so its determinant is divided exactly by den^(2n).
    """
    n = lat.n
    sums = power_sums(f)
    rows = [ia.ptrim(row) for row in lat.rows]
    gram = [[trace_of(mul_mod(rows[i], rows[j], f), f, sums)
             for j in range(n)] for i in range(n)]
    det, rem = divmod(_bareiss_det(gram), lat.den ** (2 * n))
    if rem:
        raise RuntimeError("trace form of an order must have integer determinant")
    return det


def _bareiss_det(M) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(M)
    M = [row[:] for row in M]
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        for r in range(c + 1, n):
            M[r] = [(M[r][j] * M[c][c] - M[r][c] * M[c][j]) // prev
                    if j > c else 0 for j in range(n)]
        prev = M[c][c]
    return sign * M[n - 1][n - 1] if n else 1


def index_disc_identity(lat: bs.IntegerLattice, f: IntPoly) -> bool:
    """disc(f) == [O : Z[theta]]^2 * disc(O), all sides exact."""
    idx = lat.index_over_power_basis()
    return ia.discriminant(f) == idx * idx * order_discriminant(lat, f)


def charpoly(num: IntPoly, f: IntPoly) -> list[int]:
    """Characteristic polynomial of num(theta), monic first: c_0 = 1, ..., c_n.

    The traces p_k = tr(num(theta)^k) give the coefficients by Newton's
    identities k * c_k = -sum_{i<k} c_i * p_{k-i}, all in integers.
    """
    n = ia.pdeg(f)
    sums = power_sums(f)
    a = ia.pdivmod_monic(num, f)[1]
    traces = [n]
    power = (1,)
    for _ in range(n):
        power = mul_mod(power, a, f)
        traces.append(trace_of(power, f, sums))
    coeffs = [1]
    for k in range(1, n + 1):
        c, rem = divmod(-sum(coeffs[i] * traces[k - i] for i in range(k)), k)
        if rem:
            raise RuntimeError("Newton's identities left a remainder")
        coeffs.append(c)
    return coeffs


def charpoly_is_integral(num: IntPoly, den: int, f: IntPoly) -> bool:
    """Whether num(theta)/den is an algebraic integer (exact char poly test).

    The char poly of num(theta)/den has coefficients c_k / den^k.
    """
    return all(c % den ** k == 0 for k, c in enumerate(charpoly(num, f)))


# ---------------------------------------------------------------------------
# maximality at a prime (radical and multiplier-ring enlargement)


def _left_kernel_mod_p(M, p: int) -> list[list[int]]:
    """Vectors a with sum(a_i * M[i]) = 0 over Z/pZ."""
    if not M:
        return []
    cols = len(M[0])
    transposed = [[M[i][j] for i in range(len(M))] for j in range(cols)]
    return _kernel_mod_p(transposed, p)


def _kernel_mod_p(M, p: int) -> list[list[int]]:
    """Basis of {x : M x = 0} over Z/pZ."""
    if not M:
        return []
    rows = len(M)
    cols = len(M[0])
    A = [[x % p for x in row] for row in M]
    pivots = {}
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots[c] = r
        r += 1
    kernel = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [0] * cols
        vec[c] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-A[pr][c]) % p
        kernel.append(vec)
    return kernel


def _mult_table(lat: bs.IntegerLattice, f: IntPoly) -> list:
    """table[i][j] = integer coordinates of w_i * w_j in the lattice basis."""
    coords = _product_coords(lat, f)
    table = [[coords(i, j) for j in range(lat.n)] for i in range(lat.n)]
    if any(c is None for row in table for c in row):
        raise ValueError("vector outside the lattice")
    return table


def pz_enlarge(lat: bs.IntegerLattice, f: IntPoly, p: int) -> bs.IntegerLattice:
    """One radical/multiplier-ring enlargement step of the order at p."""
    if not ia.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    n = lat.n
    table = _mult_table(lat, f)

    def mul_coords(a, b):
        out = [0] * n
        for i, ai in enumerate(a):
            if ai % p == 0:
                continue
            for j, bj in enumerate(b):
                if bj % p == 0:
                    continue
                for k in range(n):
                    out[k] = (out[k] + ai * bj * table[i][j][k]) % p
        return out

    # radical of pO: kernel of x -> x^(p^m) on O/pO, p^m >= n
    m = 1
    while p ** m < n:
        m += 1
    frob_rows = []
    for i in range(n):
        acc = [int(i == j) for j in range(n)]
        for _ in range(m):
            # acc^p by repeated squaring on the exponent p
            base = acc
            out = None
            e = p
            while e:
                if e & 1:
                    out = base if out is None else mul_coords(out, base)
                e >>= 1
                if e:
                    base = mul_coords(base, base)
            acc = out
        frob_rows.append(acc)
    rad = _left_kernel_mod_p(frob_rows, p)
    # ideal I = <radical lifts> + pO, as lattice coordinates over lat
    ideal_rows = [list(v) for v in rad]
    ideal_rows += [[p * (i == j) for j in range(n)] for i in range(n)]
    ideal = bs.IntegerLattice.from_rows(ideal_rows, 1, n)
    # multiplier ring: y with y * I inside p * I gives y/p in the enlargement
    big = []
    for i in range(n):
        vimg = []
        for j in range(n):
            prod = [0] * n
            for k, c in enumerate(ideal.rows[j]):
                if c:
                    for l in range(n):
                        prod[l] += c * table[i][k][l]
            coords = ideal.solve(prod)
            if coords is None:
                raise ValueError("vector outside the ideal lattice")
            vimg.extend(c % p for c in coords)
        big.append(vimg)
    kern = _left_kernel_mod_p(big, p)
    rows = [[p * x for x in row] for row in lat.rows]
    for v in kern:
        vec = [0] * n
        for i, c in enumerate(v):
            if c:
                for k in range(n):
                    vec[k] += c * lat.rows[i][k]
        rows.append(vec)
    return bs.IntegerLattice.from_rows(rows, lat.den * p, n)


def p_maximal(lat: bs.IntegerLattice, f: IntPoly, p: int) -> bool:
    """True when the multiplier ring of the p-radical adds nothing."""
    return pz_enlarge(lat, f, p) == lat


# ---------------------------------------------------------------------------
# aggregated report


def verify_report(f: IntPoly, D: int | None = None,
                  known_primes: list[int] | None = None) -> list:
    """Run the oracle suite on a global-basis computation; list of checks."""
    checks = []
    result = bs.global_basis(f, D)
    lat = result.merged

    def add(name, ok, details=""):
        checks.append({"check": name, "status": "pass" if ok else "fail",
                       "details": details})

    add("basis-count", all(len(b) == ia.pdeg(f) for _, b in result.moduli))
    add("ring-closed", ring_closed(lat, f))
    try:
        add("index-discriminant", index_disc_identity(lat, f))
    except (ValueError, RuntimeError) as exc:
        add("index-discriminant", False, str(exc))
    add("elements-integral", all(
        charpoly_is_integral(el.num, N ** el.den_exp, f)
        for N, b in result.moduli for el in b))
    reps = {}  # composite modulus -> its tree, built once
    for p in known_primes or []:
        add(f"p-maximal-{p}", p_maximal(lat, f, p))
        for N, _ in result.moduli:
            if N % p == 0 and N != p:
                if N not in reps:
                    reps[N] = run_tree(f, N).rep
                if reps[N] is not None:
                    rp = project_check(reps[N], f, p)
                    add(f"project-{N}-{p}", rp["ok"], "; ".join(rp["details"]))
    return checks
