"""Integral bases from tree leaves, HNF lattices, and the global driver.

A basis element is num(theta) / N^k with num reduced modulo the defining
polynomial.  All basis equalities are lattice equalities: lattices are n x n
integer matrices over a common denominator, normalized to upper-triangular
Hermite form (positive diagonal, entries above each pivot reduced), which is
the canonical representative used for every comparison.
"""

from __future__ import annotations

import math

from . import intarith as ia
from . import omprime as op
from .sfom import SFOMRep, sfom as run_tree
from . import sftypes as st
from .artinalg import PolyA, Record
from .intarith import IntPoly


class BasisElement(Record):
    """num(theta) / N^den_exp with deg num < n."""

    __slots__ = ("num", "den_exp")


# ---------------------------------------------------------------------------
# Hermite normal form lattices


def _sub_multiple(row: dict, p: dict, j: int, q: int, r: int) -> None:
    """row -= q * p on rows held as {column: nonzero entry}, off column j,
    which the caller took out of row: the remainder r goes there."""
    for k, y in p.items():
        if k != j:
            if x := row.get(k, 0) - q * y:
                row[k] = x
            else:
                row.pop(k, None)
    if r:
        row[j] = r


def hnf_rows(rows, n: int, modulus: int) -> list[list[int]]:
    """Row HNF of span(rows) + modulus * Z^n: upper triangular, every pivot a
    positive divisor of the modulus, entries above each pivot reduced into
    [0, pivot).

    The rows modulus * e_j seed the pivots (Cohen, GTM 138, 2.4.2), and
    pivot rows stay in [0, modulus).  A work row may leave it between steps:
    a step reduces only the row's entry at the pivot column and the entries
    an extended-gcd step reads.  The row stays congruent modulo the modulus
    (so in the same coset of the lattice) to that of a run that reduces
    every entry, and every quotient, gcd and pivot entry is that run's.  An
    extended-gcd step leaves its pivot at the gcd, a divisor of the old one.

    Every work and pivot row is a dict {column: nonzero entry}, so a step
    touches only the entries that exist.  Rows go in by ascending last
    column.  First each row is size-reduced, right to left, against the
    lower pivots (for each column, the first row that ends there): the
    nearly triangular OM rows keep few nonzero entries that way.  Then each
    row meets the pivot of its first nonzero column, by an exact step or an
    extended-gcd step, until it is zero.  The back-reduction runs from the
    bottom row up, against reduced rows.
    """
    work = sorted(filter(None, ({j: y for j, x in enumerate(row)
                                 if (y := x % modulus)} for row in rows)),
                  key=max)
    lower: list[dict | None] = [None] * n
    for row in work:
        last = max(row)
        for j in range(last - 1, -1, -1):
            if (p := lower[j]) is not None and (x := row.pop(j, 0)):
                q, r = divmod(x, p[j])
                _sub_multiple(row, p, j, q, r)
        if lower[last] is None:
            lower[last] = row
    basis = [{j: modulus} for j in range(n)]
    for row in work:
        while row:
            piv = basis[j := min(row)]
            if not (b := row.pop(j) % modulus):
                continue
            q, r = divmod(b, a := piv[j])
            if not r:
                _sub_multiple(row, piv, j, q, 0)
                continue
            row[j] = b
            d, u, v = ia.xgcd(a, b)
            a, b = a // d, b // d
            new_piv, new_row = {}, {}
            for k, y in piv.items():
                x = row.pop(k, 0) % modulus
                if z := (u * y + v * x) % modulus:
                    new_piv[k] = z
                if z := a * x - b * y:
                    new_row[k] = z
            for k, x in row.items():
                if x := x % modulus:
                    if z := v * x % modulus:
                        new_piv[k] = z
                    new_row[k] = a * x
            basis[j], row = new_piv, new_row
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if x := basis[i].pop(j, 0):
                q, r = divmod(x, basis[j][j])
                _sub_multiple(basis[i], basis[j], j, q, r)
    return [[row.get(k, 0) for k in range(n)] for row in basis]


class IntegerLattice(Record):
    """Full-rank lattice in Q^n: rows/den are the basis vectors; rows in HNF."""

    __slots__ = ("den", "rows", "n")

    @classmethod
    def from_rows(cls, rows, den: int, n: int) -> "IntegerLattice":
        """The lattice spanned by rows/den and Z^n, in HNF over den, with the
        factors common to den and every entry cancelled."""
        red = hnf_rows(rows, n, den)
        g = den
        for row in red:
            g = math.gcd(g, *row)
            if g == 1:
                return cls(den, tuple(map(tuple, red)), n)
        return cls(den // g, tuple(tuple(x // g for x in row) for row in red), n)

    def index_over_power_basis(self) -> int:
        num = self.den ** self.n
        d = math.prod(self.rows[i][i] for i in range(self.n))
        if num % d:
            raise ValueError("lattice does not contain the power basis")
        return num // d

    def solve(self, vec, den: int = 1) -> list[int] | None:
        """Integer c with sum_j c_j * rows_j / self.den == vec / den, by forward
        substitution against the HNF rows; None when vec/den is not in the
        lattice."""
        # cancel common factors first: products come with den = self.den^2
        g = math.gcd(den, self.den)
        den //= g
        rest = [x * (self.den // g) for x in vec]
        coords = []
        for j, row in enumerate(self.rows):
            q, r = divmod(rest[j], row[j] * den)
            if r:
                return None
            coords.append(q)
            if q:
                for i in range(j, self.n):
                    rest[i] -= q * den * row[i]
        return coords


def _merge_row_groups(results, n: int) -> IntegerLattice:
    """The sum of Z[theta] and the local bases of `results`, (N, elements)
    pairs, over den = lcm of the N^den_exp.  It contains den * Z^n, so each
    element num / N^e goes in once, as the row (den / N^e) * (num mod N^e),
    and an integral element (e = 0), whose row is zero, is left out."""
    den = math.lcm(*(N ** el.den_exp for N, basis in results for el in basis))
    rows = []
    for N, basis in results:
        for el in basis:
            if not el.den_exp:
                continue
            d = N ** el.den_exp
            scale = den // d
            row = [scale * (x % d) for x in el.num]
            rows.append(row + [0] * (n - len(row)))
    return IntegerLattice.from_rows(rows, den, n)


# ---------------------------------------------------------------------------
# bases attached to leaves


def order_zero_basis(t: PolyA, f: IntPoly) -> list[BasisElement]:
    """Elements theta^j * q(theta) for the multiplicity-one part t of f mod N,
    where f = q * lift(t) + remainder.  As deg q = n - deg t and j < deg t,
    each numerator x^j * q already has degree below n."""
    q, _ = ia.pdivmod_monic(f, st.lift_order_zero(t))
    return [BasisElement(ia.pshift(q, j), 0) for j in range(t.degree())]


def terminal_basis(leaves, f: IntPoly) -> list[BasisElement]:
    """The block of elements attached to one terminal side of order r >= 1.

    `leaves` holds the multiplicity-one leaves sharing that side (several can
    share it when residual factors were kept separate or a modulus split);
    the block width at the top level is e_r times their total residue degree.
    For level i the element factors are the division-chain quotients ending
    at the right endpoint of the side, with denominators floor of the
    accumulated scaled values.
    """
    leaf = leaves[0]
    if leaf.order < 1:
        raise ValueError("order-zero leaves use order_zero_basis")
    levels = [[] for _ in range(leaf.order)]
    for i, _, q, H in level_quotients(leaf, sum(l.fdim for l in leaves)):
        levels[i - 1].append((q, H))
    E = leaf.e_prod()
    f0 = leaf.trunc(0).fdim
    out = []

    def rec(i, num, H):
        if i == len(levels):
            _, red = ia.pdivmod_monic(num, f)
            out.append(BasisElement(red, H // E))
            return
        for q, Hq in levels[i]:
            rec(i + 1, ia.pmul(num, q), H + Hq)

    for j0 in range(f0):
        rec(0, ia.pshift((1,), j0), 0)
    return out


def level_quotients(leaf: st.SFType, fdim_top: int):
    """(i, j, q, H) for the division-chain quotients of f at each level i of
    the chain of `leaf`, read from the expansions and polygons the tree kept.

    q is the quotient ending j steps left of the right end (s1, u1) of the
    side of slope h/e, the lambda-component of f, for 0 <= j < e_i * f_i,
    where f_i is `fdim_top` at the top level; H / E = v_i(q) / (e_1...e_i) is
    its accumulated value, over the leaf's e-product E = e_1...e_r, so H =
    v_i(q) * (e_{i+1}...e_r).  As s1 is the last t where w_t = e * u_t + h * t
    is least on the cloud of f, q_s (expanded by g as coeffs[s:]) has the
    value min(w_t for t >= s) - s * (e * V + h) = e * (u1 - s * V) + h * j.
    """
    nodes = [leaf.trunc(i) for i in range(1, leaf.order + 1)]
    scale = math.prod(node.e for node in nodes)
    for i, node in enumerate(nodes, 1):
        scale //= node.e
        side = next(sd for sd in node.parent.polygon.sides
                    if (sd.h, sd.e) == (node.h, node.e))
        width = node.e * (fdim_top if i == leaf.order else node.fdim)
        for j in range(width):
            s = side.s1 - j
            v = node.e * (side.u1 - s * node.V) + node.h * j
            yield i, j, node.parent.f_exp.quotients[s - 1], v * scale


def n_integral_basis(rep: SFOMRep, f: IntPoly, N: int) -> list[BasisElement]:
    """Full local basis at N from a tree; n elements in total.

    The construction holds only when the tree is unramified or N is
    squarefree; `global_basis` splits N by `int_sfd` first where it must.
    """
    out = []
    t0 = rep.order_zero_t()
    if t0 is not None:
        out.extend(order_zero_basis(t0, f))
    sides: dict = {}  # (parent node, slope) -> the leaves on that side
    for leaf in rep.leaves:
        if leaf.order >= 1:
            sides.setdefault((leaf.parent, leaf.h, leaf.e), []).append(leaf)
    for group in sides.values():
        out.extend(terminal_basis(group, f))
    if len(out) != ia.pdeg(f):
        raise RuntimeError("basis size mismatch")
    return out


# ---------------------------------------------------------------------------
# global driver


class GlobalBasisResult(Record):
    """f, D, the local bases `moduli` as (N, list[BasisElement]) pairs, and
    their `merged` lattice."""

    __slots__ = ("f", "D", "moduli", "merged")

    def to_obj(self) -> dict:
        return {
            "f": [str(c) for c in self.f],
            "D": str(self.D),
            "moduli": [
                {
                    "N": str(N),
                    "basis": [
                        {"num": [str(c) for c in el.num], "den_exp": el.den_exp}
                        for el in basis
                    ],
                }
                for N, basis in self.moduli
            ],
            "global": {
                "den": str(self.merged.den),
                "hnf": [[str(x) for x in row] for row in self.merged.rows],
            },
        }


def global_basis(f: IntPoly, D: int | None = None) -> GlobalBasisResult:
    """Local bases for a coprime splitting of D plus their merged lattice.

    D defaults to disc(f); a user-supplied D stands in for a partial
    factorization of the discriminant.  All primes up to deg f are stripped
    off D and handled by the prime engine; the remaining moduli are processed
    by the composite engine, with detected factors splitting the worklist and
    ramified trees routed through integer squarefree decomposition.
    """
    f = ia.ptrim(f)
    n = ia.pdeg(f)
    if n < 2 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree > 1")
    if D == 0:
        raise ValueError("D must be nonzero")
    D_in = ia.discriminant(f) if D is None else D
    if D_in == 0:
        raise ValueError("discriminant is zero: polynomial is not squarefree")
    D_work = abs(D_in)
    results = []
    for p in ia._small_primes(n):
        k, D_work = ia.ord_n(D_work, p)
        if k > 1:
            rep = op.om_prime(f, p)
            results.append((p, n_integral_basis(rep, f, p)))
    moduli = [D_work] if D_work > 1 else []
    while moduli:
        N = moduli.pop()
        out = run_tree(f, N)
        if out.n_factor is not None:
            moduli.extend(ia.coprime_splitting(out.n_factor, N))
            continue
        rep = out.rep
        if rep.ramified:
            parts = ia.int_sfd(N)
            if parts != [(N, 1)]:
                moduli.extend(d for d, _ in parts)
                continue
            # squarefree as far as gcd refinement can tell
        results.append((N, n_integral_basis(rep, f, N)))
    results.sort(key=lambda t: t[0])
    return GlobalBasisResult(f, D_in, results, _merge_row_groups(results, n))
