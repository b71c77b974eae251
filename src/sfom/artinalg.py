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
from itertools import accumulate, chain

from .intarith import IntPoly, padd, pmul, power, pscale


class FactorEvent(Exception):
    """A proper factor of a modulus was detected.

    level -1: ``factor`` is an int with 1 < factor < N and factor | N.
    level i >= 0: ``factor`` is a monic PolyA properly dividing modulus t_i.
    """

    def __init__(self, level: int, factor):
        super().__init__(f"factor of modulus {level}")
        self.level = level
        self.factor = factor

    def __reduce__(self):
        return FactorEvent, (self.level, self.factor)


class NonExactDivision(RuntimeError):
    """A division expected to be exact left a remainder (internal bug)."""


_set = object.__setattr__


class Record:
    """Immutable value record: the fields are the `__slots__` of the subclass,
    set once by `__init__`; equality and hashing go by the tuple of fields,
    and only between records of the same class."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._astuple = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)}"
                            f" fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return f"{type(self).__name__}{self._astuple(self)!r}"

    def __reduce__(self):  # copy and pickle through __init__, not setattr
        values = self._astuple(self)
        return type(self), values if len(self.__slots__) > 1 else (values,)


class PolyA(Record):
    """Dense polynomial over a tower level, trailing zeros trimmed."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: tuple):
        _set(self, "level", level)
        _set(self, "coeffs", coeffs)

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
        if self.sizes[L - 1] == 1:  # d residues mod N over t in (Z/N)[y]
            rem = self._divmod0(pmul(a, b), self._ints(self.moduli[L - 1]))[1]
            return self.lift_elem(tuple(x % self.N for x in rem), L)
        prod = self.p_mul(self.elem_to_poly(a, L), self.elem_to_poly(b, L))
        _, rem = self.p_divmod_monic(prod, self.moduli[L - 1])
        return self.poly_to_elem(rem, L)

    def e_pow(self, a: tuple, k: int) -> tuple:
        if k < 0:
            return self.e_pow(self.e_invert(a), -k)
        return power(a, k, self.e_mul, self.one(self.sizes.index(len(a))))

    def e_invert(self, a: tuple) -> tuple:
        """Inverse by the monic Bezout loop of a against the modulus below, on
        int lists over Z/N and on PolyAs above; a gcd other than one raises
        FactorEvent(L - 1, gcd), a lc that is no unit an event lower down."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero")
        L = self.sizes.index(len(a))
        if L == 0:
            try:
                return (pow(a[0], -1, self.N),)
            except ValueError:
                raise self.factor_event(-1, math.gcd(a[0], self.N)) from None
        if self.sizes[L - 1] == 1:  # on int lists
            r0, r1, u0, u1 = list(a), self._ints(self.moduli[L - 1]), [1], []
            while r1:
                if r1[-1] != 1:
                    inv = self.e_invert((r1[-1],))[0]
                    r1, u1 = ([x * inv % self.N for x in p] for p in (r1, u1))
                q, r2 = self._divmod0(r0, r1)
                r0, r1 = r1, self._reduce0(r2)
                u0, u1 = u1, self._reduce0(padd(u0, pscale(pmul(q, u1), -1)))
            if len(r0) > 1:
                raise self.factor_event(L - 1, self._poly0(L - 1, r0))
            return self.lift_elem(tuple(u0), L)
        r0, r1 = self.elem_to_poly(a, L), self.moduli[L - 1]
        u0, u1 = self.p_one(L - 1), PolyA(L - 1, ())
        while r1.coeffs:
            if not self.is_one(r1.coeffs[-1]):
                inv = self.e_invert(r1.coeffs[-1])
                r1, u1 = self.p_scale(r1, inv), self.p_scale(u1, inv)
            q, r2 = self.p_divmod_monic(r0, r1)
            r0, r1 = r1, r2
            u0, u1 = u1, self.p_sub(u0, self.p_mul(q, u1))
        if not self.p_is_one(r0):
            raise self.factor_event(L - 1, r0)
        return self.poly_to_elem(u0, L)

    def z(self, L: int) -> tuple:
        """Generator of A_L over A_{L-1} (class of y)."""
        if L < 1:
            raise ValueError("no generator at level 0")
        if self.dims[L - 1] >= 2:
            return self.lift_elem(self.zero(L - 1) + self.one(L - 1), L)
        return self.e_neg(self.moduli[L - 1].coeffs[0])  # y reduces to -t(0)

    def zpow(self, L: int, k: int) -> tuple:
        """z_{L-1}^k for any sign of k; t_{L-1}(0) must be a unit for k < 0."""
        return self.e_pow(self.z(L), k)

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

    def p_one(self, L: int) -> PolyA:
        return PolyA(L, (self.one(L),))

    def p_y(self, L: int) -> PolyA:
        return PolyA(L, (self.zero(L), self.one(L)))

    def p_trim(self, L: int, coeffs) -> PolyA:
        c = list(coeffs)
        while c and self.is_zero(c[-1]):
            c.pop()
        return PolyA(L, tuple(c))

    # Level 0, and every level over linear moduli (sizes[L] = 1: Z/N again),
    # runs on plain int lists: unwrap the 1-tuples, compute with deferred
    # reductions, and wrap back reducing each coefficient once.  So do e_mul
    # and e_invert on the d residues of an element over Z/N (sizes[L-1] = 1).

    def _ints(self, p: PolyA) -> list:
        return [c[0] for c in p.coeffs]

    def _reduce0(self, ints) -> list:
        c = [x % self.N for x in ints]
        while c and not c[-1]:
            c.pop()
        return c

    def _poly0(self, L: int, ints) -> PolyA:
        return PolyA(L, tuple((x,) for x in self._reduce0(ints)))

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

    def p_from_int_poly(self, f: IntPoly) -> PolyA:
        return self._poly0(0, f)

    def p_add(self, p: PolyA, q: PolyA) -> PolyA:
        L = p.level
        a, b = p.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = self.e_add(out[i], c)
        return self.p_trim(L, out)

    def p_sub(self, p: PolyA, q: PolyA) -> PolyA:
        return self.p_add(p, PolyA(q.level, tuple(map(self.e_neg, q.coeffs))))

    def p_scale(self, p: PolyA, a: tuple) -> PolyA:
        return self.p_trim(p.level, [self.e_mul(a, c) for c in p.coeffs])

    def p_mul(self, p: PolyA, q: PolyA) -> PolyA:
        L = p.level
        if not p.coeffs or not q.coeffs:
            return PolyA(L, ())
        if self.sizes[L] == 1:  # schoolbook over Z, then one reduction mod N
            return self._poly0(L, pmul(self._ints(p), self._ints(q)))
        out = [self.zero(L)] * (len(p.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(p.coeffs):
            if self.is_zero(a):
                continue
            for j, b in enumerate(q.coeffs):
                out[i + j] = self.e_add(out[i + j], self.e_mul(a, b))
        return self.p_trim(L, out)

    def p_deriv(self, p: PolyA) -> PolyA:
        N = self.N  # i * c is i times each coordinate of c
        return self.p_trim(p.level, [tuple(i * x % N for x in c)
                                     for i, c in enumerate(p.coeffs)][1:])

    def p_divmod_monic(self, s: PolyA, t: PolyA) -> tuple[PolyA, PolyA]:
        """Division with remainder by a monic t; never raises FactorEvent."""
        L = s.level
        if not self.p_is_monic(t):
            raise ValueError("divisor must be monic")
        if self.sizes[L] == 1:
            quo, rem = self._divmod0(self._ints(s), self._ints(t))
            return self._poly0(L, quo), self._poly0(L, rem)
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
        """Monic d with sA[y] + tA[y] = dA[y] for t != 0, or a FactorEvent."""
        if self.sizes[s.level] == 1:
            # A gap-1 step takes the pseudo-remainder lc^2 * a mod b and
            # defers lc = lc(b).  While the deferred lcs are units, every
            # remainder is a unit multiple of the generic loop's, so their
            # unit certificate before the next inverse (and at the end,
            # lc = 0) raises the generic loop's first event, if any.
            N, a, b = self.N, self._ints(s), self._ints(t)
            lcs = []  # deferred leading coefficients, as elements
            while True:
                lc = b[-1] if b else 0
                if lc > 1 and len(a) == len(b) + 1:
                    lcs.append((lc,))
                    q1, lc2 = lc * a[-1] % N, lc * lc % N
                    q0 = (lc * a[-2] - a[-1] * b[-2]) % N if len(b) > 1 else 0
                    a, b = b, self._reduce0(
                        [lc2 * x - q0 * y - q1 * z for x, y, z
                         in zip(a, b[:-1], chain((0,), b))])
                    continue
                if lc != 1 and lcs:
                    self.p_assert_strongly_unitary(PolyA(s.level, tuple(lcs)))
                    lcs = []
                if not b:
                    break
                if lc != 1:
                    inv = self.e_invert((lc,))[0]
                    b = [x * inv % N for x in b]
                a, b = b, self._reduce0(self._divmod0(a, b)[1])
            if len(a) == 1:  # a unit: its lc was certified
                return PolyA(s.level, ((1,),))
            if a[-1] != 1:
                inv = self.e_invert((a[-1],))[0]
                a = [x * inv for x in a]
            return self._poly0(s.level, a)
        while t.coeffs:
            t = self.p_make_monic(t)
            _, r = self.p_divmod_monic(s, t)
            s, t = t, r
        return s

    def p_exact_divide(self, t: PolyA, d: PolyA) -> PolyA:
        """Quotient t/d for monic d; NonExactDivision when remainder is nonzero."""
        q, r = self.p_divmod_monic(t, d)
        if r.coeffs:
            raise NonExactDivision(f"remainder of degree {r.degree()}")
        return q

    def p_assert_strongly_unitary(self, t: PolyA) -> None:
        """Certify every nonzero coefficient is a unit (FactorEvent hook):
        one gcd with N for a coefficient in Z/N, an inverse above it.  The
        first coefficient that fails raises its FactorEvent."""
        for c in t.coeffs:
            if not self.is_zero(c) and (
                    len(c) > 1 or math.gcd(c[0], self.N) != 1):
                self.e_invert(c)

    def p_sfd(self, f: PolyA) -> list[tuple[PolyA, int]]:
        """Squarefree decomposition f = lc * prod s_i^l_i, l_1 < l_2 < ...

        Output factors are monic, squarefree, pairwise coprime and certified
        strongly unitary.  Musser's gcd loop divides c by the monic w once per
        step, as gcd(c, w) would first: a zero remainder gives y = w and s = 1,
        else y = gcd(w, c mod w).  A part with vanishing derivative goes
        through a p-th root, which only a prime N = p can reach: over a
        composite N the driver keeps every prime of N above deg f.  A linear
        f skips the loop, whose gcds and divisions would be by the monic 1.
        """
        if not f.coeffs:
            raise ValueError("squarefree decomposition of zero")
        out: dict[int, PolyA] = {}  # multiplicity -> product of its parts
        g, scale = self.p_make_monic(f), 1
        if g.degree() == 1:
            self.p_assert_strongly_unitary(g)
            return [(g, 1)]
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
                    quo, rem = self.p_divmod_monic(c, w)
                    if not rem.coeffs:  # y = w, s = 1
                        c = quo
                    else:  # y divides rem, so deg s >= deg w - deg rem > 0
                        y = self.p_gcd(w, rem)
                        s = self.p_exact_divide(w, y)
                        m = i * scale
                        out[m] = self.p_mul(out[m], s) if m in out else s
                        w, c = y, self.p_exact_divide(c, y)
                    i += 1
            if c.degree() < 1:
                break
            # c = g^p over a prime N = p: x^(p^(sizes[L]-1)) inverts x^p in
            # the field A_L, so g is every p-th coefficient of c to that power
            k = self.N ** (self.sizes[c.level] - 1)
            g = self.p_trim(c.level, [self.e_pow(x, k)
                                      for x in c.coeffs[::self.N]])
            scale *= self.N
        for s in out.values():
            self.p_assert_strongly_unitary(s)
        return [(s, m) for m, s in sorted(out.items())]

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
