"""Towers of quotient rings over Z/NZ and polynomial arithmetic over them.

A tower is a chain A_0 = Z/NZ, A_1 = A_0[y]/(t_0), A_2 = A_1[y]/(t_1), ...
where each modulus t_i is monic, squarefree and strongly unitary (all nonzero
coefficients are units), and t_i(0) != 0 for i >= 1.

Because N is composite, Euclidean steps can hit zero divisors.  Whenever that
happens the arithmetic raises a FactorEvent carrying a proper factor of N or
of one of the moduli; callers treat these events as progress, never as
failures.  Every event is verified at raise time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain

from .intarith import IntPoly


class FactorEvent(Exception):
    """A proper factor of a modulus was detected.

    level -1: ``factor`` is an int with 1 < factor < N and factor | N.
    level i >= 0: ``factor`` is a monic PolyA properly dividing modulus t_i.
    """

    def __init__(self, level: int, factor):
        super().__init__(f"factor of modulus {level}")
        self.level = level
        self.factor = factor


class NonExactDivision(Exception):
    """A division expected to be exact left a remainder (internal bug)."""


@dataclass(frozen=True)
class PolyA:
    """Dense polynomial over a tower level, trailing zeros trimmed."""

    level: int
    coeffs: tuple

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)


class AlgebraTower:
    """Immutable chain of quotient rings with moduli [t_0, ..., t_{r-1}].

    An element of A_L is a flat tuple of sizes[L] = d_0...d_{L-1} residues
    mod N (sizes[0] = 1): its d_{L-1} coordinates in A_{L-1}, written one
    after another.
    """

    __slots__ = ("N", "moduli", "dims", "sizes")

    def __init__(self, N: int, moduli: tuple = ()):
        if N <= 1:
            raise ValueError("need N > 1")
        self.N = N
        self.moduli = tuple(moduli)
        self.dims = tuple(t.degree() for t in self.moduli)
        self.sizes = tuple(accumulate(self.dims, operator.mul, initial=1))

    # -- element layer ------------------------------------------------------
    # A level with d = 1 is the ring below it, so e_mul, e_invert and e_pow
    # work in the lowest level of their operand's size.

    def levels(self) -> int:
        return len(self.moduli)

    def zero(self, L: int) -> tuple:
        return (0,) * self.sizes[L]

    def one(self, L: int) -> tuple:
        return self.embed_int(1, L)

    def embed_int(self, k: int, L: int) -> tuple:
        return self.lift_elem((k % self.N,), L)

    def lift_elem(self, a: tuple, L: int) -> tuple:
        """Embed an element into a higher level by constant coordinates."""
        return a + (0,) * (self.sizes[L] - len(a))

    def is_zero(self, a: tuple) -> bool:
        return not any(a)

    def is_one(self, a: tuple) -> bool:
        return a[0] == 1 and not any(a[1:])

    def e_add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.N for x, y in zip(a, b))

    def e_neg(self, a: tuple) -> tuple:
        return tuple(-x % self.N for x in a)

    def e_sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % self.N for x, y in zip(a, b))

    def e_mul(self, a: tuple, b: tuple) -> tuple:
        L = self.sizes.index(len(a))
        if L == 0:
            return (a[0] * b[0] % self.N,)
        prod = self.p_mul(self.elem_to_poly(a, L), self.elem_to_poly(b, L))
        _, rem = self.p_divmod_monic(prod, self.moduli[L - 1])
        return self.poly_to_elem(rem, L)

    def e_pow(self, a: tuple, k: int) -> tuple:
        if k < 0:
            return self.e_pow(self.e_invert(a), -k)
        out = self.one(self.sizes.index(len(a)))
        base = a
        while k:
            if k & 1:
                out = self.e_mul(out, base)
            k >>= 1
            if k:
                base = self.e_mul(base, base)
        return out

    def e_invert(self, a: tuple) -> tuple:
        """Inverse certified by a recursive Bezout chain; FactorEvent on failure."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero")
        L = self.sizes.index(len(a))
        if L == 0:
            try:
                return (pow(a[0], -1, self.N),)
            except ValueError:
                raise self.factor_event(-1, math.gcd(a[0], self.N)) from None
        d, u, _ = self.p_xgcd(self.elem_to_poly(a, L), self.moduli[L - 1])
        if not self.p_is_one(d):
            raise self.factor_event(L - 1, d)
        return self.poly_to_elem(u, L)

    def z(self, L: int) -> tuple:
        """Generator of A_L over A_{L-1} (class of y)."""
        if L < 1:
            raise ValueError("no generator at level 0")
        if self.dims[L - 1] >= 2:
            return self.lift_elem(self.zero(L - 1) + self.one(L - 1), L)
        return self.e_neg(self.moduli[L - 1].coeffs[0])  # y reduces to -t(0)

    def zpow(self, L: int, k: int) -> tuple:
        """z_{L-1}^k for any sign of k; t_{L-1}(0) must be a unit for k < 0."""
        zl = self.z(L)
        if k >= 0:
            return self.e_pow(zl, k)
        t = self.moduli[L - 1]
        t0 = t.coeffs[0]
        # z^-1 = -t(0)^-1 * ((t(y) - t(0)) / y) evaluated at z
        inv0 = self.e_invert(t0)
        shifted = PolyA(L - 1, t.coeffs[1:])
        zinv = self.e_mul(
            self.e_neg(self.lift_elem(inv0, L)), self.p_eval_up(shifted, zl)
        )
        return self.e_pow(zinv, -k)

    def elem_to_poly(self, a: tuple, L: int) -> PolyA:
        """Coordinates of a level-L element as a polynomial over level L-1."""
        k = self.sizes[L - 1]
        return self.p_trim(L - 1, [a[i:i + k] for i in range(0, len(a), k)])

    def poly_to_elem(self, p: PolyA, L: int) -> tuple:
        """Reduced polynomial over level L-1, padded into a level-L element."""
        if p.degree() >= self.dims[L - 1]:
            raise ValueError("coordinates not reduced")
        return self.lift_elem(tuple(chain.from_iterable(p.coeffs)), L)

    # -- polynomial layer ----------------------------------------------------

    def p_zero(self, L: int) -> PolyA:
        return PolyA(L, ())

    def p_one(self, L: int) -> PolyA:
        return PolyA(L, (self.one(L),))

    def p_y(self, L: int) -> PolyA:
        return PolyA(L, (self.zero(L), self.one(L)))

    def p_trim(self, L: int, coeffs) -> PolyA:
        c = list(coeffs)
        while c and self.is_zero(c[-1]):
            c.pop()
        return PolyA(L, tuple(c))

    # Level 0 runs on plain int lists: unwrap the 1-tuples, compute with
    # deferred reductions, and wrap back reducing each coefficient once.

    def _ints(self, p: PolyA) -> list:
        return [c[0] for c in p.coeffs]

    def _reduce0(self, ints) -> list:
        c = [x % self.N for x in ints]
        while c and not c[-1]:
            c.pop()
        return c

    def _poly0(self, ints) -> PolyA:
        return PolyA(0, tuple((x,) for x in self._reduce0(ints)))

    @staticmethod
    def _pack(ints: list, k: int) -> int:
        return int.from_bytes(
            b"".join(x.to_bytes(k, "little") for x in ints), "little")

    def _divmod0(self, s: list, t: list) -> tuple[list, list]:
        """Division by a monic t (t[-1] is not read); only the current
        leading coefficient is reduced mod N inside the loop."""
        dt = len(t) - 1
        rem = list(s)
        quo = [0] * max(len(rem) - dt, 0)
        for i in range(len(rem) - 1 - dt, -1, -1):
            c = quo[i] = rem[i + dt] % self.N
            if c:
                rem[i:i + dt] = [r - c * b for r, b in zip(rem[i:i + dt], t)]
        return quo, rem[:dt]

    def p_is_one(self, p: PolyA) -> bool:
        return len(p.coeffs) == 1 and self.is_one(p.coeffs[0])

    def p_is_monic(self, p: PolyA) -> bool:
        return bool(p.coeffs) and self.is_one(p.coeffs[-1])

    def p_from_int_poly(self, f: IntPoly, L: int = 0) -> PolyA:
        return self.p_trim(L, [self.embed_int(c, L) for c in f])

    def p_add(self, p: PolyA, q: PolyA) -> PolyA:
        L = p.level
        a, b = p.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.e_add(out[i], c)
        return self.p_trim(L, out)

    def p_neg(self, p: PolyA) -> PolyA:
        return PolyA(p.level, tuple(self.e_neg(c) for c in p.coeffs))

    def p_sub(self, p: PolyA, q: PolyA) -> PolyA:
        return self.p_add(p, self.p_neg(q))

    def p_scale(self, p: PolyA, a: tuple) -> PolyA:
        return self.p_trim(p.level, [self.e_mul(a, c) for c in p.coeffs])

    def p_mul(self, p: PolyA, q: PolyA) -> PolyA:
        L = p.level
        if not p.coeffs or not q.coeffs:
            return PolyA(L, ())
        if L == 0:  # Kronecker substitution: one product of packed ints
            a, b = self._ints(p), self._ints(q)
            k = (2 * self.N.bit_length() + min(len(a), len(b)).bit_length()
                 + 8) // 8  # bytes per slot; no product coefficient overflows
            prod = (self._pack(a, k) * self._pack(b, k)).to_bytes(
                k * (len(a) + len(b) - 1), "little")
            return self._poly0(int.from_bytes(prod[i:i + k], "little")
                               for i in range(0, len(prod), k))
        out = [self.zero(L)] * (len(p.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(p.coeffs):
            if self.is_zero(a):
                continue
            for j, b in enumerate(q.coeffs):
                out[i + j] = self.e_add(out[i + j], self.e_mul(a, b))
        return self.p_trim(L, out)

    def p_deriv(self, p: PolyA) -> PolyA:
        L = p.level
        out = [
            self.e_mul(self.embed_int(i, L), c) for i, c in enumerate(p.coeffs)
        ][1:]
        return self.p_trim(L, out)

    def p_eval_up(self, p: PolyA, x: tuple) -> tuple:
        """Evaluate a level-L polynomial at a level-(L+1) point."""
        L1 = p.level + 1
        out = self.zero(L1)
        for c in reversed(p.coeffs):
            out = self.e_add(self.e_mul(out, x), self.lift_elem(c, L1))
        return out

    def p_divmod_monic(self, s: PolyA, t: PolyA) -> tuple[PolyA, PolyA]:
        """Division with remainder by a monic t; never raises FactorEvent."""
        L = s.level
        if not self.p_is_monic(t):
            raise ValueError("divisor must be monic")
        if L == 0:
            quo, rem = self._divmod0(self._ints(s), self._ints(t))
            return self._poly0(quo), self._poly0(rem)
        dt = t.degree()
        rem = list(s.coeffs)
        quo = [self.zero(L)] * max(len(rem) - dt, 0)
        for i in range(len(rem) - 1 - dt, -1, -1):
            c = rem[i + dt]
            if self.is_zero(c):
                continue
            quo[i] = c
            for j, b in enumerate(t.coeffs):
                rem[i + j] = self.e_sub(rem[i + j], self.e_mul(c, b))
        return self.p_trim(L, quo), self.p_trim(L, rem[:dt])

    def p_make_monic(self, t: PolyA) -> PolyA:
        """Scale by lc^-1 (FactorEvent when the leading coefficient splits)."""
        if not t.coeffs:
            raise ValueError("zero polynomial")
        if self.is_one(t.coeffs[-1]):
            return t
        return self.p_scale(t, self.e_invert(t.coeffs[-1]))

    def p_gcd(self, s: PolyA, t: PolyA) -> PolyA:
        """Monic d with sA[y] + tA[y] = dA[y], or a FactorEvent."""
        if not t.coeffs:
            if not s.coeffs:
                raise ValueError("gcd(0, 0)")
            return self.p_make_monic(s)
        if s.level == 0:  # the generic loop's inverses, in the same order
            a, b = self._ints(s), self._ints(t)
            while b:
                if b[-1] != 1:
                    inv = self.e_invert((b[-1],))[0]
                    b = [x * inv % self.N for x in b]
                a, b = b, self._reduce0(self._divmod0(a, b)[1])
            return self._poly0(a)
        while t.coeffs:
            t = self.p_make_monic(t)
            _, r = self.p_divmod_monic(s, t)
            s, t = t, r
        return s

    def p_xgcd(self, s: PolyA, t: PolyA) -> tuple[PolyA, PolyA, PolyA]:
        """(d, u, v) with s*u + t*v = d, d as in p_gcd."""
        L = s.level
        r0, r1 = s, t
        s0, s1 = self.p_one(L), self.p_zero(L)
        t0, t1 = self.p_zero(L), self.p_one(L)
        while r1.coeffs:
            lc = r1.coeffs[-1]
            if not self.is_one(lc):
                inv = self.e_invert(lc)
                r1 = self.p_scale(r1, inv)
                s1 = self.p_scale(s1, inv)
                t1 = self.p_scale(t1, inv)
            q, r2 = self.p_divmod_monic(r0, r1)
            r0, r1 = r1, r2
            s0, s1 = s1, self.p_sub(s0, self.p_mul(q, s1))
            t0, t1 = t1, self.p_sub(t0, self.p_mul(q, t1))
        if not r0.coeffs:
            raise ValueError("gcd(0, 0)")
        lc = r0.coeffs[-1]
        if not self.is_one(lc):
            inv = self.e_invert(lc)
            r0, s0, t0 = (self.p_scale(x, inv) for x in (r0, s0, t0))
        return r0, s0, t0

    def p_exact_divide(self, t: PolyA, d: PolyA) -> PolyA:
        """Quotient t/d for monic d; NonExactDivision when remainder is nonzero."""
        q, r = self.p_divmod_monic(t, d)
        if r.coeffs:
            raise NonExactDivision(f"remainder of degree {r.degree()}")
        return q

    def p_assert_strongly_unitary(self, t: PolyA) -> None:
        """Certify every nonzero coefficient is a unit (FactorEvent hook); at
        level 0 by one gcd of their product with N, looping only to report."""
        if t.level == 0 and math.gcd(
                math.prod(c[0] for c in t.coeffs if c[0]) % self.N,
                self.N) == 1:
            return
        for c in t.coeffs:
            if not self.is_zero(c):
                self.e_invert(c)

    def p_sfd(self, f: PolyA) -> list[tuple[PolyA, int]]:
        """Squarefree decomposition f = lc * prod s_i^l_i, l_1 < l_2 < ...

        Output factors are monic, squarefree, pairwise coprime and certified
        strongly unitary.  Musser's gcd loop; a part with vanishing derivative
        goes through a p-th root, which only a prime N = p can reach: over a
        composite N the driver keeps every prime of N above deg f.
        """
        if not f.coeffs:
            raise ValueError("squarefree decomposition of zero")
        out: dict[int, PolyA] = {}  # multiplicity -> product of its parts
        g, scale = self.p_make_monic(f), 1
        while g.degree() >= 1:
            c = g
            deriv = self.p_deriv(g)
            if deriv.coeffs:
                c = self.p_gcd(g, deriv)
                w = self.p_exact_divide(g, c)
                i = 1
                while not self.p_is_one(w):
                    if i > g.degree():
                        raise RuntimeError(
                            "squarefree decomposition did not terminate")
                    y = self.p_gcd(c, w)
                    s = self.p_exact_divide(w, y)
                    if s.degree() >= 1:
                        m = i * scale
                        out[m] = self.p_mul(out[m], s) if m in out else s
                    w = y
                    c = self.p_exact_divide(c, y)
                    i += 1
            if c.degree() < 1:
                break
            g, scale = self._pth_root(c), scale * self.N
        for s in out.values():
            self.p_assert_strongly_unitary(s)
        return [(s, m) for m, s in sorted(out.items())]

    def _pth_root(self, f: PolyA) -> PolyA:
        """Inverse Frobenius over a prime N = p: f = g(y^p) gives g, each
        coefficient raised to p^(sizes[L]-1) in the field A_L of p^sizes[L]
        elements."""
        k = self.N ** (self.sizes[f.level] - 1)
        return self.p_trim(f.level,
                           [self.e_pow(c, k) for c in f.coeffs[::self.N]])

    # -- tower construction --------------------------------------------------

    def extend(self, t: PolyA) -> AlgebraTower:
        """New tower with modulus t appended at the top level.

        Certification checks t is monic and strongly unitary (FactorEvent
        hook) and that t(0) != 0 above level 0.
        """
        L = self.levels()
        if t.level != L:
            raise ValueError("modulus must live at the top level")
        if t.degree() < 1:
            raise ValueError("modulus must have positive degree")
        self.p_assert_strongly_unitary(t)
        if L >= 1 and self.is_zero(t.coeffs[0]):
            raise ValueError("modulus must have nonzero constant term")
        if not self.p_is_monic(t):
            raise ValueError("modulus must be monic")
        return AlgebraTower(self.N, self.moduli + (t,))

    # -- events ---------------------------------------------------------------

    def factor_event(self, level: int, factor) -> FactorEvent:
        """Build a FactorEvent, verifying the factor genuinely splits a modulus."""
        if level == -1:
            if not (1 < factor < self.N) or self.N % factor:
                raise AssertionError("bogus integer factor event")
            return FactorEvent(-1, factor)
        t = self.moduli[level]
        if not (0 < factor.degree() < t.degree()) or not self.p_is_monic(factor):
            raise AssertionError("bogus polynomial factor event")
        _, r = self.p_divmod_monic(t, factor)
        if r.coeffs:
            raise AssertionError("claimed factor does not divide its modulus")
        return FactorEvent(level, factor)

    # -- serialization ---------------------------------------------------------

    def elem_to_obj(self, a: tuple, L: int):
        if L == 0:
            return str(a[0])
        k = self.sizes[L - 1]
        return [self.elem_to_obj(a[i:i + k], L - 1) for i in range(0, len(a), k)]

    def poly_to_obj(self, p: PolyA):
        return [self.elem_to_obj(c, p.level) for c in p.coeffs]
