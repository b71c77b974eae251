"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from scratch (dense lists mod p,
Sylvester determinants, brute-force factor enumeration, a remainder-swap
HNF) so they share no code with the package paths they check.  The helpers
over package objects (`p_pow`, `p_quotrem`, `polygon_sum`, `from_elements`,
`power_basis`, `basis_vectors`, `hnf_merge`, `quotient_value_bound`) are
used by tests only; `hnf_rows_reference`, `p_sfd_reference`,
`charpoly_is_integral_reference` and the `*_reference` level-0 loops keep
replaced package algorithms for differential tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from sfom import basis as bs
from sfom import intarith as ia
from sfom.artinalg import FactorEvent
from sfom.validate import charpoly

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


def polygon_sum(a, b):
    """Principal vertices of the Minkowski sum of two principal polygons."""
    start = (a.principal_vertices[0][0] + b.principal_vertices[0][0],
             a.principal_vertices[0][1] + b.principal_vertices[0][1])
    sides = sorted(a.sides + b.sides, key=lambda s: Fraction(s.h, s.e),
                   reverse=True)
    verts = [start]
    for s in sides:
        x, y = verts[-1]
        verts.append((x + s.width, y - s.width * s.h // s.e))
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
    """The lattice spanned by the basis elements num / N^den_exp."""
    n = ia.pdeg(f)
    rows, den = bs._element_rows(elements, N, n)
    return bs.IntegerLattice.from_rows(rows, den, n)


def power_basis(n):
    """The lattice Z[theta] = Z^n."""
    return bs.IntegerLattice(1, tuple(tuple(int(i == j) for j in range(n))
                                      for i in range(n)), n)


def basis_vectors(lat):
    """The basis vectors rows / den of a lattice, as Fractions."""
    return [[Fraction(x, lat.den) for x in row] for row in lat.rows]


def hnf_merge(lattices, f):
    """HNF of the module sum of the given lattices and Z[theta]."""
    return bs._merge_row_groups([(lat.rows, lat.den) for lat in lattices],
                                ia.pdeg(f))


def quotient_value_bound(f, leaf, p, rho):
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
# reference Hermite normal form (remainder-swap Euclid on whole rows)


def hnf_rows_reference(rows, n, modulus=None):
    """Row HNF by remainder-swap steps, with the modulus rows appended last;
    the same output contract as basis.hnf_rows."""
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


# ---------------------------------------------------------------------------
# the level-0 loops that the plain-int kernels replaced (1-tuple elements)


def invert_reference(T, a):
    g = math.gcd(a[0], T.N)
    if g != 1:
        raise FactorEvent(-1, g)
    return (pow(a[0], -1, T.N),)


def p_mul_reference(T, p, q):
    if not p.coeffs or not q.coeffs:
        return T.p_zero(0)
    out = [T.zero(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = T.e_add(out[i + j], T.e_mul(a, b))
    return T.p_trim(0, out)


def p_divmod_reference(T, s, t):
    dt = t.degree()
    rem = list(s.coeffs)
    quo = [T.zero(0)] * max(len(rem) - dt, 0)
    for i in range(len(rem) - 1 - dt, -1, -1):
        c = rem[i + dt]
        if T.is_zero(c):
            continue
        quo[i] = c
        for j, b in enumerate(t.coeffs):
            rem[i + j] = T.e_sub(rem[i + j], T.e_mul(c, b))
    return T.p_trim(0, quo), T.p_trim(0, rem[:dt])


def p_gcd_reference(T, s, t):
    def make_monic(p):
        if T.is_one(p.coeffs[-1]):
            return p
        inv = invert_reference(T, p.coeffs[-1])
        return T.p_trim(0, [T.e_mul(inv, c) for c in p.coeffs])

    if not t.coeffs:
        return make_monic(s)
    while t.coeffs:
        t = make_monic(t)
        s, t = t, p_divmod_reference(T, s, t)[1]
    return s


def strongly_unitary_reference(T, t):
    for c in t.coeffs:
        if not T.is_zero(c):
            invert_reference(T, c)


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


@pytest.fixture
def rng():
    return random.Random(20240808)
