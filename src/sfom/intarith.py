"""Exact integer and integer-polynomial primitives.

Integers are plain Python ints (arbitrary precision).  Integer polynomials
are dense tuples of ints in ascending degree order with trailing zeros
trimmed; the zero polynomial is the empty tuple.  No floating point is used.
"""

from __future__ import annotations

import functools
import itertools
import math

IntPoly = tuple

# ---------------------------------------------------------------------------
# integers


def ord_n(a: int, N: int) -> tuple[int, int]:
    """Split a = N^k * b with N not dividing b; return (k, b).

    a must be nonzero and N > 1.
    """
    if a == 0:
        raise ValueError("ord_n of zero")
    if N <= 1:
        raise ValueError("modulus must exceed 1")
    k = 0
    while a % N == 0:
        a //= N
        k += 1
    return k, a


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0: bit by bit if it has b <= 2 bits(k)
    + 4 bits, else by Newton from (iroot(n >> k*s, k) + 1) * 2^s, s = b // 2,
    above the root by a relative error below 1/(4k) (not k*ln 2 steps)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    b = -(-n.bit_length() // k)
    if b <= 2 * k.bit_length() + 4:
        x = 1 << (b - 1)  # 2^(b-1) <= r < 2^b
        for i in range(b - 2, -1, -1):
            if (x | 1 << i) ** k <= n:
                x |= 1 << i
        return x
    s = b // 2
    x = (iroot(n >> k * s, k) + 1) << s
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, u, v) with u * a + v * b = d = gcd(a, b) >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1, v0, v1 = u1, u0 - q * u1, v1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def perfect_power(n: int) -> tuple[int, int]:
    """Return (b, k) with n = b^k and k maximal (k = 1 when n is no power).

    Tries prime exponents in ascending order and takes each root it finds:
    the primes p with n = b^p are exactly those dividing the maximal k.  The
    root is skipped when n mod q is no p-th power residue for one of the
    sieve primes q = 1 (mod p) (Bernstein, Math. Comp. 67, 1998).
    """
    if n < 2:
        raise ValueError("perfect_power needs n >= 2")
    k, i = 1, 0
    # a power-of-two bound above bits(n) keeps the memo of sieves small
    primes = _small_primes(1 << n.bit_length().bit_length())
    while i < len(primes) and primes[i] < n.bit_length():
        p = primes[i]
        if all(pow(n, e, q) < 2 for q, e in _sieve(p)):
            b = iroot(n, p)
            if b ** p == n:
                n, k = b, k * p
                continue
        i += 1
    return n, k


@functools.cache
def _sieve(p: int) -> tuple:
    """(q, (q - 1) / p) for the first four primes q = 1 (mod p): n is no
    p-th power when n^((q - 1) / p) mod q is neither 0 nor 1."""
    qs = (q for q in itertools.count(p + 1, p) if is_probable_prime(q))
    return tuple((q, (q - 1) // p) for _, q in zip(range(4), qs))


def coprime_base(nums: list[int]) -> set[int]:
    """Pairwise coprime integers > 1 of which every entry of nums is a
    product of powers, by gcd splitting alone (no factoring)."""
    stack = [n for n in nums if n > 1]
    base: list[int] = []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(n, b)
            if g != 1:  # split off g's whole power and retry the pieces
                base.pop(i)
                stack += (g, ord_n(n, g)[1], ord_n(b, g)[1])
                break
        else:
            base.append(n)
    return set(base)


def coprime_splitting(d: int, N: int) -> list[int]:
    """Refine a proper divisor d of N into pairwise coprime non-powers.

    Every prime of N divides exactly one output entry, each entry divides N,
    and N is a product of powers of the entries.
    """
    if not (1 < d < N) or N % d != 0:
        raise ValueError("need a proper divisor 1 < d < N")
    return sorted({perfect_power(b)[0] for b in coprime_base([d, N])})


_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the bases 2, 3, ..., 37.

    No composite below 3.3 * 10^24 passes all twelve bases, so the answer is
    exact below that bound.
    """
    if n < 2:
        return False
    for p in _SPRP_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _small_primes(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(p for p in range(2, bound + 1) if sieve[p])


def int_sfd(N: int) -> list[tuple[int, int]]:
    """Squarefree decomposition N = prod d_i^l_i with l_1 < l_2 < ...

    Trial division by the primes below 1000 and a perfect-power root of the
    rest give pairwise coprime pieces; d_l is the product of those with
    exponent l.  A square factor of the rest that is no perfect power stays
    undetected, so a hard squarefree-looking N comes back as [(N, 1)].
    """
    if N <= 1:
        raise ValueError("need N > 1")
    by_exp: dict[int, int] = {}
    rest = N
    for p in _small_primes(1000):
        if p * p > rest:
            break
        if rest % p == 0:
            k, rest = ord_n(rest, p)
            by_exp[k] = by_exp.get(k, 1) * p
    if rest > 1:
        b, k = perfect_power(rest)
        by_exp[k] = by_exp.get(k, 1) * b
    result = [(d, e) for e, d in sorted(by_exp.items())]
    if math.prod(d ** e for d, e in result) != N:
        raise RuntimeError("squarefree decomposition failed to recombine")
    return result


# ---------------------------------------------------------------------------
# integer polynomials (dense ascending tuples)


def ptrim(coeffs) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(f: IntPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def padd(f: IntPoly, g: IntPoly) -> IntPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return ptrim(out)


def pmul(f: IntPoly, g: IntPoly) -> IntPoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return ptrim(out)


def pscale(f: IntPoly, c: int) -> IntPoly:
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def pshift(f: IntPoly, k: int) -> IntPoly:
    """Multiply the nonzero f by x^k."""
    return (0,) * k + tuple(f)


def power(x, k: int, mul, one):
    """x^k for k >= 0 by square-and-multiply with the product `mul`,
    starting from the first factor; `one` is returned for k = 0 only."""
    out = one if k == 0 else None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def ppow(f: IntPoly, k: int) -> IntPoly:
    return power(f, k, pmul, (1,))


def pderiv(f: IntPoly) -> IntPoly:
    return ptrim([i * c for i, c in enumerate(f)][1:])


def peval(f: IntPoly, x: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def pdivmod_monic(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division with remainder by a monic g; exact over the integers."""
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    dg = pdeg(g)
    if dg == 1 and len(f) > 1:  # synthetic division by x + g[0]
        c, g0, quo = 0, g[0], []
        for a in f[:0:-1]:
            c = a - g0 * c
            quo.append(c)
        return ptrim(quo[::-1]), ptrim((f[0] - g0 * c,))
    rem = list(f)
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1 - dg, -1, -1):
        c = rem[i + dg]
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return ptrim(quo), ptrim(rem[:dg])


def _prem(f: IntPoly, g: IntPoly) -> list[int]:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g, computed in
    place on one list."""
    dg, lc_g = pdeg(g), g[-1]
    r = list(f)
    n = len(r) - dg  # deg f - deg g + 1
    while len(r) > dg:
        j, lead = len(r) - 1 - dg, r.pop()
        n -= 1
        r[:j] = [c * lc_g for c in r[:j]]
        r[j:] = [a * lc_g - lead * c for a, c in zip(r[j:], g)]
        while r and not r[-1]:
            r.pop()
    scale = lc_g ** n
    return [c * scale for c in r]


def _exact_div(R, den: int) -> tuple:
    """R / den coefficientwise, in one pass that stops at the first
    nonzero remainder."""
    out = []
    for c in R:
        q, rem = divmod(c, den)
        if rem:
            raise RuntimeError("subresultant divisions not exact")
        out.append(q)
    return tuple(out)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Exact resultant via the subresultant polynomial remainder sequence."""
    if not f or not g:
        return 0
    s = 1
    if pdeg(f) < pdeg(g):
        if pdeg(f) & 1 and pdeg(g) & 1:
            s = -s
        f, g = g, f
    if pdeg(g) == 0:
        return s * g[0] ** pdeg(f)
    A, B = f, g
    gg, h = 1, 1
    while True:
        dA, dB = pdeg(A), pdeg(B)
        delta = dA - dB
        if dA & 1 and dB & 1:
            s = -s
        R = _prem(A, B)
        A = B
        if not R:
            return 0
        B = _exact_div(R, gg * h ** delta)
        gg = A[-1]
        if delta > 0:
            (h,) = _exact_div((gg ** delta,), h ** (delta - 1))
        if pdeg(B) == 0:
            dA = pdeg(A)
            (res,) = _exact_div((B[0] ** dA,), h ** (dA - 1))
            return s * res


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) resultant(f, f') / lc(f)."""
    n = pdeg(f)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, pderiv(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f[-1])
    if rem:
        raise RuntimeError("discriminant division not exact")
    return q
