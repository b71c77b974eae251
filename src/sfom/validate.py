"""Independent oracles: projection, integrality, index identity, maximality.

These routines are the artifact's ground truth at test scale.  They are
library code (not test-only) so the command line can expose a `verify`
subcommand; they may factor nothing themselves, but accept externally known
primes as inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import basis as bs
from . import intarith as ia
from . import omprime as op
from .artinalg import AlgebraTower
from .sfom import SFOMRep, sfom as run_tree
from . import sftypes as st
from .intarith import IntPoly


# ---------------------------------------------------------------------------
# per-prime projection of a composite tree


def normalized_chain(leaf: st.SFType, rho: int = 1) -> tuple:
    """Slopes rho*h_i/e_i of the levels i >= 1 of a leaf, each level with
    e_i*f_i = 1 merged into its successor by adding its slope.

    Such a level is not optimal: the next representative has the same
    degree, so its slope is no Okutsu invariant (Guardia-Montes-Nart,
    "Okutsu invariants and Newton polygons", Acta Arith. 145, 2010) and two
    trees of the same prime ideal may differ there.  A last level stays.
    """
    out, carry = [], 0
    for lvl in leaf.chain()[1:]:
        carry += Fraction(rho * lvl.h, lvl.e)
        if lvl is leaf or lvl.e * lvl.fdim != 1:
            out.append(carry)
            carry = 0
    return tuple(out)


def project_check(rep: SFOMRep, f: IntPoly, p: int) -> dict:
    """Compare a composite tree with the prime tree at p | N.

    A prime leaf matches the composite leaves with an equal normalized
    chain, composite slopes scaled by rho = ord_p(N), and a root modulus
    that divides the composite one mod p; where several match, those whose
    raw slope chain also equals the prime leaf's are kept if there are any.
    Composite leaves that share a prime leaf form one pool (most pools hold
    one leaf).  The prime leaves of a pool must have the pool's total
    residue degree f_0...f_r and ramification e_1...e_r / gcd(rho,
    e_1...e_r).  `groups` gives, per composite leaf, the number of prime
    leaves in its pool: 1 at the order-0 leaf, whose modulus mod p is the
    prime tree's one order-0 modulus, the multiplicity-1 part of f mod p.
    Returns a report dict with an "ok" flag.
    """
    N = rep.N
    if N % p:
        raise ValueError("p does not divide N")
    rho = ia.ord_n(N, p)[0]
    report = {"p": p, "rho": rho, "ok": True, "details": []}
    tower = AlgebraTower(p)

    def fail(detail):
        report["ok"] = False
        report["details"].append(detail)

    def profiles(tree, kind, scale):
        out = []
        for leaf in tree.leaves:
            if st.ord_ty(leaf, f) != 1:
                fail(f"{kind} leaf without multiplicity one")
            root = st.lift_order_zero(leaf.trunc(0).t)
            raw = tuple(Fraction(scale * lvl.h, lvl.e)
                        for lvl in leaf.chain()[1:])
            out.append((normalized_chain(leaf, scale), raw,
                        tower.p_from_int_poly(root), leaf.e_prod(),
                        leaf.f_prod()))
        return out

    comp = profiles(rep, "composite", rho)
    pools = [({i}, []) for i in range(len(comp))]  # leaves, prime (e, f)s
    for k, (chain, raw, root, e, fdeg) in enumerate(
            profiles(op.om_prime(f, p), "prime", 1)):
        cands = {i for i, (c_chain, _, c_root, _, _) in enumerate(comp)
                 if c_chain == chain
                 and not tower.p_divmod_monic(c_root, root)[1].coeffs}
        if len(cands) > 1:
            cands = {i for i in cands if comp[i][1] == raw} or cands
        if not cands:
            fail(f"prime leaf {k}: no candidate composite leaf")
            continue
        hit = [q for q in pools if q[0] & cands]
        pools = [q for q in pools if not q[0] & cands]
        pools.append((set().union(*(q[0] for q in hit)),
                      [pf for q in hit for pf in q[1]] + [(e, fdeg)]))
    report["groups"] = [0] * len(comp)
    for leaves, primes in pools:
        got_f = sum(fd for _, fd in primes)
        want_f = sum(comp[i][4] for i in leaves)
        es = {pe for pe, _ in primes}
        want_e = {comp[i][3] // math.gcd(rho, comp[i][3]) for i in leaves}
        if got_f != want_f or es != want_e:
            name = "+".join(map(str, sorted(leaves)))
            fail(f"leaf {name}: residue mass {got_f} vs {want_f}, e {es}")
        for i in leaves:
            report["groups"][i] = len(primes)
    return report


# ---------------------------------------------------------------------------
# ring structure, traces, maximality
#
# Shared work passes as keyword-only arguments, computed when absent:
# `products` = product_table(lat, f).


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


def mul_mod(a: IntPoly, b: IntPoly, f: IntPoly) -> IntPoly:
    _, r = ia.pdivmod_monic(ia.pmul(a, b), f)
    return r


def product_table(lat: bs.IntegerLattice, f: IntPoly) -> tuple[list, list]:
    """(coords, traces) of the products w_i * w_j of the basis w, each
    computed once for i <= j and shared with (j, i).

    coords[i][j] are the integer coordinates of w_i * w_j over w, or None
    when the product leaves the lattice; traces[i][j] is den^2 times
    tr(w_i * w_j), an entry of the integer Gram matrix of the numerators.
    """
    n = lat.n
    sums = power_sums(f)
    rows = [ia.ptrim(row) for row in lat.rows]
    coords = [[None] * n for _ in range(n)]
    traces = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = mul_mod(rows[i], rows[j], f)
            vec = list(prod) + [0] * (n - len(prod))
            coords[i][j] = coords[j][i] = lat.solve(vec, lat.den * lat.den)
            traces[i][j] = traces[j][i] = sum(
                c * sums[k] for k, c in enumerate(prod))
    return coords, traces


def ring_closed(lat: bs.IntegerLattice, f: IntPoly, *,
                products: tuple | None = None) -> bool:
    """Every product of two basis vectors stays inside the lattice."""
    coords, _ = products or product_table(lat, f)
    return all(c is not None for row in coords for c in row)


def order_discriminant(lat: bs.IntegerLattice, f: IntPoly, *,
                       products: tuple | None = None) -> int:
    """disc of the order spanned by the lattice, via the exact trace form.

    The integer Gram matrix of the numerators is den^2 times the trace form,
    so its determinant is divided exactly by den^(2n).
    """
    _, gram = products or product_table(lat, f)
    det, rem = divmod(_bareiss_det(gram), lat.den ** (2 * lat.n))
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


def index_disc_identity(lat: bs.IntegerLattice, f: IntPoly,
                        disc: int | None = None, *,
                        products: tuple | None = None) -> bool:
    """disc(f) == [O : Z[theta]]^2 * disc(O), all sides exact; `disc` is
    disc(f) when the caller already has it."""
    if disc is None:
        disc = ia.discriminant(f)
    idx = lat.index_over_power_basis()
    return disc == idx * idx * order_discriminant(lat, f, products=products)


def elements_integral(lat: bs.IntegerLattice, moduli, closed: bool) -> bool:
    """lat is ring-closed (`closed`, the verdict of `ring_closed`) and holds
    every local element num/N^e of `moduli`, (N, elements) pairs: then each
    element is integral.

    lat holds Z[theta], so 1; closed under products it is a ring and a
    finitely generated Z-module, so all its elements are integral (the
    determinant trick, Atiyah-Macdonald, Prop. 2.4 and 5.1).  As Z[theta] is
    in lat, num/N^e is iff (num mod N^e)/N^e is, and e = 0 needs no solve.
    An integral element outside lat fails too: the check tests the merge."""
    return closed and all(
        lat.solve([c % d for c in el.num] + [0] * (lat.n - len(el.num)), d)
        is not None for N, b in moduli for el in b
        if (d := N ** el.den_exp) > 1)


# ---------------------------------------------------------------------------
# maximality at a prime (radical and multiplier-ring enlargement)


def _left_kernel_mod_p(M, p: int) -> list[list[int]]:
    """Basis of the vectors a with sum(a_i * M[i]) = 0 over Z/pZ.

    One forward elimination on the rows [M_i | e_i] mod p: the rows whose
    M part vanishes at the end carry the kernel in their e part.
    """
    width = len(M[0]) if M else 0
    rows = [[x % p for x in row] + [int(i == j) for j in range(len(M))]
            for i, row in enumerate(M)]
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                k = rows[i][c] * inv
                rows[i] = [(x - k * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return [row[width:] for row in rows[r:]]


def _coord_mul(a, b, table) -> list[int]:
    """Coordinates of the product of two coordinate vectors a, b, where
    table[i][j] holds the coordinates of w_i * w_j."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c = ai * bj
                    for k, t in enumerate(table[i][j]):
                        out[k] += c * t
    return out


def pz_enlarge(lat: bs.IntegerLattice, f: IntPoly, p: int, *,
               products: tuple | None = None) -> bs.IntegerLattice:
    """One radical/multiplier-ring enlargement step of the order at p.

    The ideal I = rad + pO is the HNF of the radical's lifts modulo p, in
    coordinates over lat: its r rows with pivot 1 are the lifts b_a.  The
    multiplier ring U = {x : x*I in pI} lies in I, as pO does, and I maps pO
    into pI, so U/pO is the x = sum c_a b_a with every x*b_b in pI.  Each
    product b_a*b_b is solved mod p^2, which pI contains: its coordinates
    over I are right mod p.  The enlargement U/p contains the order, so Z^n;
    for U = pO it returns lat itself, exact when lat is from_rows-canonical."""
    if not ia.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    n = lat.n
    table, _ = products or product_table(lat, f)
    if any(c is None for row in table for c in row):
        raise ValueError("vector outside the lattice")
    table_p = [[[x % p for x in c] for c in row] for row in table]

    def mul_p(a, b):
        return [x % p for x in _coord_mul(a, b, table_p)]

    # radical of pO: kernel of x -> x^q on O/pO, q = p^m >= n
    q = p
    while q < n:
        q *= p
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    rad = _left_kernel_mod_p([ia.power(e, q, mul_p, None) for e in unit], p)
    # ideal I = <radical lifts> + pO, as lattice coordinates over lat
    ideal = bs.IntegerLattice(1, tuple(map(tuple, bs.hnf_rows(rad, n, p))), n)
    # multiplier ring: y in U gives y/p in the enlargement
    lifts = [row for i, row in enumerate(ideal.rows) if row[i] == 1]
    big = [[None] * len(lifts) for _ in lifts]  # block (a, b): b_a*b_b
    for a, x in enumerate(lifts):
        for b in range(a, len(lifts)):
            coords = ideal.solve(
                [c % (p * p) for c in _coord_mul(x, lifts[b], table)])
            if coords is None:
                raise ValueError("vector outside the ideal lattice")
            big[a][b] = big[b][a] = [c % p for c in coords]
    kernel = _left_kernel_mod_p([sum(blocks, []) for blocks in big], p)
    if not kernel:
        return lat
    rows = [[p * x for x in row] for row in lat.rows]
    for v in kernel:
        y = [sum(c * b[k] for c, b in zip(v, lifts)) for k in range(n)]
        rows.append([sum(c * row[k] for c, row in zip(y, lat.rows))
                     for k in range(n)])
    return bs.IntegerLattice.from_rows(rows, lat.den * p, n)


def p_maximal(lat: bs.IntegerLattice, f: IntPoly, p: int, *,
              products: tuple | None = None) -> bool:
    """True when the multiplier ring of the p-radical adds nothing."""
    return pz_enlarge(lat, f, p, products=products) == lat


# ---------------------------------------------------------------------------
# aggregated report


def verify_report(f: IntPoly, D: int | None = None,
                  known_primes: list[int] | None = None,
                  disc: int | None = None) -> list:
    """Run the oracle suite on a global-basis computation; list of checks.

    `disc` is disc(f) when the caller already has it; the index identity
    always compares against disc(f), never against a D standing in for it.
    The product table of the merged lattice is computed once and shared by
    every check, and `elements-integral` takes the `ring-closed` verdict.
    """
    checks = []
    result = bs.global_basis(f, D)
    lat = result.merged
    if disc is None:
        disc = result.D if D is None else ia.discriminant(f)

    def add(name, ok, details=""):
        checks.append({"check": name, "status": "pass" if ok else "fail",
                       "details": details})

    products = product_table(lat, f)
    closed = ring_closed(lat, f, products=products)
    add("basis-count", all(len(b) == ia.pdeg(f) for _, b in result.moduli))
    add("ring-closed", closed)
    try:
        add("index-discriminant",
            index_disc_identity(lat, f, disc, products=products))
    except (ValueError, RuntimeError) as exc:
        add("index-discriminant", False, str(exc))
    add("elements-integral",
        elements_integral(lat, result.moduli, closed))
    reps = {}  # composite modulus -> its tree, built once
    for p in known_primes or []:
        add(f"p-maximal-{p}", p_maximal(lat, f, p, products=products))
        for N, _ in result.moduli:
            if N % p == 0 and N != p:
                if N not in reps:
                    reps[N] = run_tree(f, N).rep
                if reps[N] is not None:
                    rp = project_check(reps[N], f, p)
                    add(f"project-{N}-{p}", rp["ok"], "; ".join(rp["details"]))
    return checks
