"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written from scratch (dense lists mod p,
Sylvester determinants, brute-force factor enumeration) so they share no code
with the package paths they check.
"""

from __future__ import annotations

import math
import random

import pytest

from sfom import intarith as ia

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


def fp_sfd(f, p):
    """Yun's decomposition over F_p, valid for deg f < p."""
    assert len(f) - 1 < p
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
