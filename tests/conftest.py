"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from scratch (dense lists mod p,
Sylvester determinants, brute-force factor enumeration, a remainder-swap
HNF) so they share no code with the package paths they check.  The helpers
over package objects (`int_poly_at`, `p_pow`, `p_quotrem`, `polygon_of`,
`polygon_sum`, `from_elements`, `power_basis`, `basis_vectors`, `hnf_merge`,
`psub`, `resultant_valuation_check`, `quotient_value_bound`) and the driver
hook `shuffled_worklist` are used by tests only; `hnf_rows_reference`,
`p_sfd_reference`, `p_sfd_musser_reference`,
`charpoly_is_integral_reference`, `pz_enlarge_reference`,
`eval_up_reference`, `om_prime_complete`, the `*_reference` level-0 loops and
the `e_*_reference` element routes keep replaced package algorithms for
differential tests.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from sfom import basis as bs
from sfom import intarith as ia
from sfom import sftypes as st
from sfom.artinalg import FactorEvent, PolyA
from sfom.validate import charpoly, product_table

# ---------------------------------------------------------------------------
# example polynomials


def example1(N=35):
    """x^4 + 2Nx^2 + N^3(N-1)x + N^2."""
    return ia.ptrim([N * N, N ** 3 * (N - 1), 2 * N, 0, 1])


def example2(p=11, r=3, m=5):
    """(x^2+p)(x^2+2p)...(x^2+rp) + p^m."""
    f = (1,)
    for k in range(1, r + 1):
        f = ia.pmul(f, (k * p, 0, 1))
    return ia.padd(f, (p ** m,))


def example3(r, N):
    """Two-level tower family with slopes 1/2 then 2/3 and r residual roots."""
    a = (1,)
    for k in range(1, r + 1):
        a = ia.pmul(a, (-k, 1))
    acoef = list(a)
    phi = ia.ptrim([N * N * (N - 1), 0, 0, 0, 1])
    f = ia.ppow(phi, 3 * r)
    for k in range(1, r + 1):
        c = acoef[r - k]
        if k % 2 == 1:
            term = ia.pscale(ia.pshift(ia.ppow(phi, 3 * (r - k)), 2),
                             c * N ** (7 * k - 1))
        else:
            term = ia.pscale(ia.ppow(phi, 3 * (r - k)), c * N ** (7 * k))
        f = ia.padd(f, term)
    return f, phi


def refine_fixture(N=35):
    """f whose run splits t_1 = (y+1)(y+2): ((x+N)(x+2N))^2 + N^6(x+N) + N^10."""
    g2 = ia.pmul((N, 1), (2 * N, 1))
    return ia.padd(ia.padd(ia.pmul(g2, g2), ia.pscale((N, 1), N ** 6)),
                   (N ** 10,))


# ---------------------------------------------------------------------------
# element helpers


def poly_ints(p):
    """Base residues of a polynomial's constant coefficients."""
    return [c[0] for c in p.coeffs]


def int_poly_at(T, f, L):
    """The integer polynomial f mod N as a polynomial over level L of T."""
    return T.p_trim(L, [T.embed_int(c, L) for c in f])


def p_pow(T, p, k):
    """p^k in the tower T, by repeated squaring."""
    out = T.p_one(p.level)
    base = p
    while k:
        if k & 1:
            out = T.p_mul(out, base)
        k >>= 1
        if k:
            base = T.p_mul(base, base)
    return out


def p_quotrem(T, s, t):
    """Division by a unitary t in the tower T; monicizes t first (FactorEvent
    when its leading coefficient is no unit)."""
    if not t.coeffs:
        raise ZeroDivisionError("division by zero polynomial")
    if T.p_is_monic(t):
        return T.p_divmod_monic(s, t)
    inv = T.e_invert(t.coeffs[-1])
    q, r = T.p_divmod_monic(s, T.p_scale(t, inv))
    return T.p_scale(q, inv), r


def eval_up_reference(T, p, x):
    """p(x) for a level-L polynomial p at a level-(L+1) point x, by Horner in
    A_{L+1} (the package takes p mod t instead)."""
    L1 = p.level + 1
    out = T.zero(L1)
    for c in reversed(p.coeffs):
        out = T.e_add(T.e_mul(out, x), T.lift_elem(c, L1))
    return out


def polygon_of(node, a):
    """Newton polygon of a for the type `node` of order >= 1: the hull of
    the cloud of its expansion by node.g over node.parent."""
    return st.NewtonPolygon.from_cloud(
        st.cloud(node.parent, st.analyze(node, a).coeffs))


def polygon_sum(a, b):
    """Principal vertices of the Minkowski sum of two principal polygons."""
    start = (a.principal_vertices[0][0] + b.principal_vertices[0][0],
             a.principal_vertices[0][1] + b.principal_vertices[0][1])
    sides = sorted(a.sides + b.sides, key=lambda s: Fraction(s.h, s.e),
                   reverse=True)
    verts = [start]
    for s in sides:
        x, y = verts[-1]
        width = s.s1 - s.s0
        verts.append((x + width, y - width * s.h // s.e))
    # merge consecutive sides of equal slope into single vertices
    out = [verts[0]]
    for i in range(1, len(verts)):
        if len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            x3, y3 = verts[i]
            if (x2 - x1) * (y3 - y1) == (y2 - y1) * (x3 - x1):
                out.pop()
        out.append(verts[i])
    return tuple(out)


def from_elements(elements, f, N):
    """The lattice spanned by Z^n and the basis elements num / N^den_exp."""
    return bs._merge_row_groups([(N, elements)], ia.pdeg(f))


def power_basis(n):
    """The lattice Z[theta] = Z^n."""
    return bs.IntegerLattice(1, tuple(tuple(int(i == j) for j in range(n))
                                      for i in range(n)), n)


def basis_vectors(lat):
    """The basis vectors rows / den of a lattice, as Fractions."""
    return [[Fraction(x, lat.den) for x in row] for row in lat.rows]


def om_prime_complete(f, p):
    """The prime tree with f mod p factored completely at the root too: one
    order-0 leaf per irreducible factor of multiplicity 1."""
    from sfom.omprime import ff_factor
    from sfom.sfom import _drive

    decompose = functools.partial(ff_factor, rng=random.Random(0))
    return _drive(f, p, decompose, prime=p).rep


def hnf_merge(lattices, f):
    """HNF of the module sum of the given lattices and Z[theta]."""
    den = math.lcm(*(lat.den for lat in lattices))
    rows = [[den // lat.den * x for x in row]
            for lat in lattices for row in lat.rows]
    return bs.IntegerLattice.from_rows(rows, den, ia.pdeg(f))


def psub(f, g):
    """f - g for integer polynomials."""
    return ia.padd(f, tuple(-c for c in g))


def resultant_valuation_check(f, g, p, contributions):
    """Exact identity sum(e_P f_P * w_P(g(theta))) = ord_p(Res(f, g)).

    `contributions` is a list of (e_P * f_P, w_P) pairs with w_P a Fraction;
    the per-prime values come from prime-tree data.
    """
    res = ia.resultant(f, g)
    if res == 0:
        raise ValueError("resultant vanishes: g shares a factor with f")
    lhs = sum(Fraction(m) * w for m, w in contributions)
    return Fraction(ia.ord_n(res, p)[0]) == lhs


def quotient_value_bound(f, leaf, p, rho):
    """For every level quotient of a leaf: (H, ord_p(Res(f, q)), n * rho * H).

    The reported resultant valuation is >= n * rho * H exactly when the
    quotient bound holds; callers assert that.
    """
    n = ia.pdeg(f)
    E = leaf.e_prod()  # level_quotients gives each value times E
    out = []
    for i, j, q, HE in bs.level_quotients(leaf, leaf.fdim):
        if HE == 0:
            continue
        H = Fraction(HE, E)
        val = ia.ord_n(ia.resultant(f, q), p)[0]
        out.append((i, j, H, val, Fraction(n * rho) * H))
    return out


def charpoly_is_integral_reference(num, den, f):
    """Integrality of num(theta)/den from the char poly of the unreduced
    numerator: its coefficients c_k must be divisible by den^k."""
    return all(c % den ** k == 0 for k, c in
               enumerate(_unreduced_charpoly(tuple(num), tuple(f))))


@functools.cache
def _unreduced_charpoly(num, f):
    """charpoly(num, f), kept per numerator: a test asks for it at several
    denominators."""
    return charpoly(num, f)


# ---------------------------------------------------------------------------
# reference maximality step (transpose Gauss-Jordan kernel, own power loop)


def left_kernel_mod_p_reference(M, p):
    """Basis of the vectors a with sum(a_i * M[i]) = 0 over Z/pZ, by
    Gauss-Jordan elimination on the transpose of M."""
    if not M:
        return []
    A = [[x % p for x in col] for col in zip(*M)]
    rows, cols = len(A), len(M)
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


def pz_enlarge_reference(lat, f, p, *, products=None):
    """One radical/multiplier-ring enlargement step of the order at p, with
    its own power loop, product loops and kernel."""
    if not ia.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    n = lat.n
    table, _ = products or product_table(lat, f)
    if any(c is None for row in table for c in row):
        raise ValueError("vector outside the lattice")
    table_p = [[[x % p for x in c] for c in row] for row in table]

    def mul_coords(a, b):
        """Product in O/pO of coordinate vectors reduced mod p."""
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        c = ai * bj
                        for k, t in enumerate(table_p[i][j]):
                            out[k] += c * t
        return [x % p for x in out]

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
    rad = left_kernel_mod_p_reference(frob_rows, p)
    # ideal I = <radical lifts> + pO, as lattice coordinates over lat
    ideal_rows = [list(v) for v in rad]
    ideal_rows += [[p * (i == j) for j in range(n)] for i in range(n)]
    ideal = bs.IntegerLattice(
        1, tuple(map(tuple, hnf_rows_reference(ideal_rows, n))), n)
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
    kern = left_kernel_mod_p_reference(big, p)
    rows = [[p * x for x in row] for row in lat.rows]
    for v in kern:
        vec = [0] * n
        for i, c in enumerate(v):
            if c:
                for k in range(n):
                    vec[k] += c * lat.rows[i][k]
        rows.append(vec)
    return bs.IntegerLattice.from_rows(rows, lat.den * p, n)


# ---------------------------------------------------------------------------
# reference Hermite normal form (remainder-swap Euclid on whole rows)


def hnf_rows_reference(rows, n, modulus=None):
    """Row HNF by remainder-swap steps, with the modulus rows appended last
    when a modulus is given (then the output contract of basis.hnf_rows);
    without one the rows must have full rank."""
    work = [list(r) for r in rows if any(r)]
    if modulus is not None:
        work = [[x % modulus for x in row] for row in work]
        for i in range(n):
            work.append([modulus * (i == j) for j in range(n)])
    basis = [None] * n
    for row in work:
        for j in range(n):
            if row[j] == 0:
                continue
            piv = basis[j]
            if piv is None:
                basis[j] = row
                break
            while row[j]:
                q = piv[j] // row[j]
                if q:
                    piv = [x - q * y for x, y in zip(piv, row)]
                    if modulus is not None:
                        piv = piv[:j + 1] + [x % modulus for x in piv[j + 1:]]
                piv, row = row, piv
            basis[j] = piv
    out = []
    for j in range(n):
        if basis[j] is None:
            raise ValueError("lattice does not have full rank")
        row = basis[j]
        if row[j] < 0:
            row = [-x for x in row]
        out.append(row)
    for j in range(n):
        for i in range(j):
            q = out[i][j] // out[j][j]
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], out[j])]
    return out


# ---------------------------------------------------------------------------
# independent mod-p polynomial oracle (dense lists, ascending)


def fp_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def fp_divmod(f, g, p):
    f = [c % p for c in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - 1 - dg, -1, -1):
        c = f[i + dg] * inv % p
        quo[i] = c
        if c:
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
    return fp_trim(quo, p), fp_trim(f[:dg], p)


def fp_gcd(f, g, p):
    f, g = fp_trim(f, p), fp_trim(g, p)
    while g:
        f, g = g, fp_divmod(f, g, p)[1]
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def fp_deriv(f, p):
    return fp_trim([i * c for i, c in enumerate(f)][1:], p)


def fp_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return fp_trim(out, p)


def fp_sfd(f, p):
    """Squarefree decomposition over F_p: Yun's for deg f < p, trial
    division by every monic polynomial of rising degree otherwise."""
    if len(f) - 1 >= p:
        return _fp_sfd_by_trial_division(f, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    d = fp_gcd(f, fp_deriv(f, p), p)
    g = fp_divmod(f, d, p)[0]
    out = []
    level = 1
    while f != [1]:
        f = fp_divmod(f, g, p)[0]
        h = fp_gcd(f, g, p)
        s = fp_divmod(g, h, p)[0]
        if s != [1]:
            out.append((tuple(s), level))
        g = h
        level += 1
    return out


def _fp_sfd_by_trial_division(f, p):
    # the least-degree monic divisor of what is left is irreducible
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    parts = {}  # multiplicity -> product of the irreducibles with it
    d = 1
    while len(f) > 1:
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            k = 0
            while len(f) > d:
                q, r = fp_divmod(f, g, p)
                if r:
                    break
                f, k = q, k + 1
            if k:
                parts[k] = fp_mul(parts.get(k, [1]), g, p)
        d += 1
    return [(tuple(s), k) for k, s in sorted(parts.items())]


# ---------------------------------------------------------------------------
# the squarefree decomposition that p_sfd replaced (Yun's, composite N)


def p_sfd_reference(T, f):
    """Yun's loop over the tower T, valid while every prime of T.N exceeds
    deg f; the same output contract as AlgebraTower.p_sfd."""
    if not f.coeffs:
        raise ValueError("squarefree decomposition of zero")
    f = T.p_make_monic(f)
    if f.degree() == 0:
        return []
    d = T.p_gcd(f, T.p_deriv(f))
    g = T.p_exact_divide(f, d)
    out = []
    level = 1
    cap = f.degree() + 2
    while not T.p_is_one(f):
        cap -= 1
        if cap < 0:
            raise RuntimeError("squarefree decomposition did not terminate")
        f = T.p_exact_divide(f, g)
        h = T.p_gcd(f, g)
        s = T.p_exact_divide(g, h)
        if not T.p_is_one(s):
            out.append((s, level))
        g = h
        level += 1
    for s, _ in out:
        T.p_assert_strongly_unitary(s)
    return out


def p_sfd_musser_reference(T, f):
    """AlgebraTower.p_sfd with Musser's step as it was before the step shared
    its first division with the gcd: y = gcd(c, w), then w / y and c / y."""
    if not f.coeffs:
        raise ValueError("squarefree decomposition of zero")
    out = {}
    g, scale = T.p_make_monic(f), 1
    if g.degree() == 1:
        T.p_assert_strongly_unitary(g)
        return [(g, 1)]
    while g.degree() >= 1:
        c = g
        deriv = T.p_deriv(g)
        if deriv.coeffs:
            c = T.p_gcd(g, deriv)
            w = T.p_exact_divide(g, c)
            i = 1
            while not T.p_is_one(w):
                if i > g.degree():
                    raise RuntimeError(
                        "squarefree decomposition did not terminate")
                y = T.p_gcd(c, w)
                s = T.p_exact_divide(w, y)
                if s.degree() >= 1:
                    m = i * scale
                    out[m] = T.p_mul(out[m], s) if m in out else s
                w = y
                c = T.p_exact_divide(c, y)
                i += 1
        if c.degree() < 1:
            break
        k = T.N ** (T.sizes[c.level] - 1)
        g = T.p_trim(c.level, [T.e_pow(x, k) for x in c.coeffs[::T.N]])
        scale *= T.N
    for s in out.values():
        T.p_assert_strongly_unitary(s)
    return [(s, m) for m, s in sorted(out.items())]


# ---------------------------------------------------------------------------
# the loops that the plain-int kernels replaced, at level 0 or at any level
# whose elements are 1-tuples (every modulus below it linear)


def invert_reference(T, a):
    g = math.gcd(a[0], T.N)
    if g != 1:
        raise FactorEvent(-1, g)
    return (pow(a[0], -1, T.N),)


def p_mul_reference(T, p, q):
    L = p.level
    if not p.coeffs or not q.coeffs:
        return PolyA(L, ())
    out = [T.zero(L)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = T.e_add(out[i + j], T.e_mul(a, b))
    return T.p_trim(L, out)


def p_divmod_reference(T, s, t):
    L, dt = s.level, t.degree()
    rem = list(s.coeffs)
    quo = [T.zero(L)] * max(len(rem) - dt, 0)
    for i in range(len(rem) - 1 - dt, -1, -1):
        c = rem[i + dt]
        if T.is_zero(c):
            continue
        quo[i] = c
        for j, b in enumerate(t.coeffs):
            rem[i + j] = T.e_sub(rem[i + j], T.e_mul(c, b))
    return T.p_trim(L, quo), T.p_trim(L, rem[:dt])


def p_gcd_reference(T, s, t):
    L = s.level

    def make_monic(p):
        if T.is_one(p.coeffs[-1]):
            return p
        inv = invert_reference(T, p.coeffs[-1])
        return T.p_trim(L, [T.e_mul(inv, c) for c in p.coeffs])

    if not t.coeffs:
        return make_monic(s)
    while t.coeffs:
        t = make_monic(t)
        s, t = t, p_divmod_reference(T, s, t)[1]
    return s


def p_deriv_reference(T, p):
    # the tower product by the embedded integer i, at any level
    L = p.level
    return T.p_trim(L, [T.e_mul(T.embed_int(i, L), c)
                        for i, c in enumerate(p.coeffs)][1:])


def strongly_unitary_reference(T, t):
    for c in t.coeffs:
        if not T.is_zero(c):
            invert_reference(T, c)


# ---------------------------------------------------------------------------
# the PolyA route that the int-list element kernels replaced at every level
# over Z/N: coordinates as a polynomial over the level below, then its loops


def e_mul_reference(T, a, b):
    L = T.sizes.index(len(a))
    if L == 0:
        return (a[0] * b[0] % T.N,)
    prod = p_mul_reference(T, T.elem_to_poly(a, L), T.elem_to_poly(b, L))
    return T.poly_to_elem(p_divmod_reference(T, prod, T.moduli[L - 1])[1], L)


def e_invert_reference(T, a):
    # the monic Bezout loop of e_invert against the modulus, on PolyAs at
    # every level with the reference loops; its gcd must be 1
    L = T.sizes.index(len(a))
    if L == 0:
        return invert_reference(T, a)
    r0, r1 = T.elem_to_poly(a, L), T.moduli[L - 1]
    s0, s1 = T.p_one(L - 1), PolyA(L - 1, ())
    while r1.coeffs:
        if not T.is_one(r1.coeffs[-1]):
            inv = e_invert_reference(T, r1.coeffs[-1])
            r1, s1 = (T.p_trim(L - 1, [e_mul_reference(T, inv, c)
                                       for c in p.coeffs]) for p in (r1, s1))
        q, r2 = p_divmod_reference(T, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, T.p_sub(s0, p_mul_reference(T, q, s1))
    if not T.p_is_one(r0):
        raise FactorEvent(L - 1, r0)
    return T.poly_to_elem(s0, L)


def sylvester_resultant(f, g):
    """Resultant via Bareiss elimination on the Sylvester matrix."""
    if not f or not g:
        return 0
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    fr, gr = list(reversed(f)), list(reversed(g))
    M = [[0] * i + fr + [0] * (size - i - len(fr)) for i in range(m)]
    M += [[0] * i + gr + [0] * (size - i - len(gr)) for i in range(n)]
    denom, sign = 1, 1
    for k in range(size - 1):
        if M[k][k] == 0:
            for r in range(k + 1, size):
                if M[r][k]:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // denom
            M[i][k] = 0
        denom = M[k][k]
    return sign * M[size - 1][size - 1]


# ---------------------------------------------------------------------------
# test-side integer factoring (never used by the artifact)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pollard_factor(n: int, out=None) -> dict:
    """Full factorization by trial division plus Pollard rho (test-side only)."""
    if out is None:
        out = {}
    if n < 0:
        n = -n
    if n <= 1:
        return out
    if is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    for p in range(2, 100000):
        if p * p > n:
            break
        if n % p == 0:
            return pollard_factor(p, pollard_factor(n // p, out))
    rng = random.Random(1)
    while True:
        c, x = rng.randrange(1, n), rng.randrange(2, n)
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return pollard_factor(d, pollard_factor(n // d, out))


def is_irreducible_over_z(f, tries=25) -> bool:
    """Certify irreducibility by finding a prime with irreducible reduction."""
    import sfom
    from sfom.artinalg import AlgebraTower
    from sfom.omprime import ff_factor

    if ia.discriminant(f) == 0:
        return False
    rng = random.Random(0)
    p = 3
    for _ in range(tries):
        while f[-1] % p == 0 or ia.discriminant(f) % p == 0:
            p = _next_prime(p)
        tower = AlgebraTower(p)
        fac = ff_factor(tower, tower.p_from_int_poly(f), rng)
        if len(fac) == 1 and fac[0][1] == 1:
            return True
        p = _next_prime(p)
    return False


def _next_prime(p: int) -> int:
    p += 1
    while not is_probable_prime(p):
        p += 1
    return p


@contextlib.contextmanager
def shuffled_worklist(seed):
    """Within the block, the tree driver shuffles its worklist with
    random.Random(seed) after every `_process` call, so its items are taken
    in a seeded random order; yields a list with one entry per shuffle of two
    or more items, true where the shuffle changed the order."""
    sfm = importlib.import_module("sfom.sfom")
    process, shuffle, moved = sfm._process, random.Random(seed).shuffle, []

    def shuffling(state, *args):
        try:
            return process(state, *args)
        finally:
            if len(state.worklist) > 1:
                before = list(state.worklist)
                shuffle(state.worklist)
                moved.append(state.worklist != before)

    sfm._process = shuffling
    try:
        yield moved
    finally:
        sfm._process = process


@pytest.fixture
def rng():
    return random.Random(20240808)
