"""Type nodes over (Z, ord_N): Newton polygons, valuations, residual operators.

A type of order r is a chain of levels (g_i, lambda_i, t_i) over a quotient
tower; it supports a pseudo-valuation v_r on Z[x], a Newton polygon operator
with respect to the pending representative, and a residual polynomial
operator with coefficients in the top tower level.

Values are kept in the e_r-scaled integer normalization throughout: v_r(f)
is the integer e_r * min(u_s + s * lambda_r).  Slopes are stored as coprime
positive pairs (h, e); the geometric slope is -h/e.  All polygon geometry is
integer-only (cross products), no rational arithmetic in comparisons.
"""

from __future__ import annotations

import math

from . import intarith as ia
from .artinalg import AlgebraTower, PolyA, Record
from .intarith import IntPoly

# ---------------------------------------------------------------------------
# Newton polygons


class Side(Record):
    """A segment from (s0, u0) to (s1, u1) of geometric slope -h/e with
    gcd(h, e) = 1: a side of a polygon, or the lambda-component of a cloud
    for lambda = h/e, which may be a single point (s0 == s1)."""

    __slots__ = ("h", "e", "s0", "u0", "s1", "u1")


class NewtonPolygon(Record):
    """Lower convex hull of a cloud of integer points (s, u): the cloud
    `points` in ascending s, the hull corner points `vertices` and the
    negative-slope `sides`, left to right.  Side i joins vertex i to vertex
    i + 1, so the principal part is the first len(sides) + 1 vertices."""

    __slots__ = ("points", "vertices", "sides")

    @classmethod
    def from_cloud(cls, points) -> "NewtonPolygon":
        """The polygon of a cloud given in ascending s, as `cloud` returns it."""
        pts = tuple(points)
        if not pts:
            raise ValueError("empty cloud")
        hull = []
        for p in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # keep only strict right turns: drop collinear middles
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        sides = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if y2 >= y1:
                break
            g = math.gcd(y1 - y2, x2 - x1)
            sides.append(Side((y1 - y2) // g, (x2 - x1) // g, x1, y1, x2, y2))
        return cls(pts, tuple(hull), tuple(sides))

    @property
    def principal_length(self) -> int:
        return self.vertices[len(self.sides)][0]

    @property
    def principal_vertices(self) -> tuple:
        return self.vertices[:len(self.sides) + 1]


# ---------------------------------------------------------------------------
# g-adic expansions


class Expansion(Record):
    """Canonical g-expansion f = sum a_s g^s, whole or through its principal
    part, with the division-chain quotients q_s = a_s + a_{s+1} g + ... as
    quotients[s-1]."""

    __slots__ = ("coeffs", "quotients")


def expand(f: IntPoly, g: IntPoly, terms: int | None = None) -> Expansion:
    """Expand the nonzero f in powers of the monic g; coefficients have
    degree < deg g.  With `terms`, stop after the first `terms` divisions:
    a_0..a_{terms-1} and the nonzero ones of q_1..q_terms."""
    if ia.pdeg(g) < 1:
        raise ValueError("expansion base must have positive degree")
    coeffs = []
    quots = []
    cur = f
    while cur and len(coeffs) != terms:
        q, a = ia.pdivmod_monic(cur, g)
        coeffs.append(a)
        if q:
            quots.append(q)
        cur = q
    return Expansion(tuple(coeffs), tuple(quots))


# ---------------------------------------------------------------------------
# type nodes


class SFType:
    """A type of order `order`; nodes form a tree through `parent` links.

    Level data of the top level: representative g (degree m), slope h/e,
    modulus t = tower.moduli[order], value V = v_{order-1}(g), Bezout pair
    (ell, ellp) with ell*h + ellp*e = 1 and 0 <= ell < e.  `omega` is the
    multiplicity of t inside `residual_src`, the residual polynomial this
    level's modulus was extracted from (the reduction of f for roots).
    The tree driver keeps `f_exp`, f expanded by `representative(node)` to
    omega + 1 terms, and its `polygon` for the basis stage; None on leaves.
    """

    def __init__(self, parent: SFType | None, order: int, tower: AlgebraTower,
                 g: IntPoly | None, h: int, e: int, V: int, m: int, ell: int,
                 ellp: int, omega: int, residual_src: PolyA):
        self.parent, self.order, self.tower, self.g = parent, order, tower, g
        self.h, self.e, self.V, self.m = h, e, V, m
        self.ell, self.ellp, self.omega = ell, ellp, omega
        self.residual_src = residual_src
        self._analyses, self._values, self._certified = {}, {}, set()
        self.f_exp = self.polygon = None

    @property
    def t(self) -> PolyA:
        return self.tower.moduli[self.order]

    @property
    def fdim(self) -> int:
        return self.t.degree()

    def trunc(self, i: int) -> SFType:
        node = self
        while node.order > i:
            node = node.parent
        return node

    def chain(self) -> list[SFType]:
        out = []
        node = self
        while node is not None:
            out.append(node)
            node = node.parent
        return out[::-1]

    def e_prod(self) -> int:
        return math.prod(n.e for n in self.chain())

    def f_prod(self) -> int:
        return math.prod(n.fdim for n in self.chain())


def make_root(tower0: AlgebraTower, t0: PolyA, omega: int,
              residual_src: PolyA) -> SFType:
    tower = tower0.extend(t0)
    return SFType(None, 0, tower, None, 0, 1, 0, 1, 0, 1, omega, residual_src)


def make_child(parent: SFType, g: IntPoly, h: int, e: int, t: PolyA,
               omega: int, residual_src: PolyA) -> SFType:
    if math.gcd(h, e) != 1 or h < 1 or e < 1:
        raise ValueError("slope must be a positive reduced fraction")
    tower = parent.tower.extend(t)
    m = ia.pdeg(g)
    if m != parent.e * parent.fdim * parent.m:
        raise ValueError("representative degree does not match level data")
    V = _pending_V(parent)
    ell = pow(h, -1, e) if e > 1 else 0
    ellp = (1 - ell * h) // e
    node = SFType(parent, parent.order + 1, tower, g, h, e, V, m, ell, ellp,
                  omega, residual_src)
    if __debug__:
        assert value(parent, g) == V
        _assert_value_recurrence(node)
    return node


def _assert_value_recurrence(node: SFType) -> None:
    # V_r / (e_1...e_{r-1}) == sum_{1<=j<r} (m_r/m_j) h_j / (e_1...e_j),
    # times E = e_1...e_{r-1}; m_j divides m_r
    levels = node.chain()[1:-1]
    E = math.prod(lvl.e for lvl in levels)
    total = 0
    eprod = 1
    for lvl in levels:
        eprod *= lvl.e
        total += node.m // lvl.m * lvl.h * (E // eprod)
    assert node.V == total


# ---------------------------------------------------------------------------
# analysis: valuation, component, residual, evaluated residual


class Analysis(Record):
    """Level data of a nonzero integer polynomial with respect to a type node.

    v is the scaled valuation, (s0, u0)-(s1, u1) the lambda-component of the
    principal polygon, nu the twist exponent, R the residual polynomial over
    level `order`, gamma = z^nu * R(z) in level order+1, where R(z) is the
    element R mod t; coeffs is the expansion by the node's representative,
    (a,) at order 0.
    """

    __slots__ = ("v", "s0", "u0", "s1", "u1", "nu", "R", "gamma", "coeffs")


def analyze(node: SFType, a: IntPoly) -> Analysis:
    """Total analysis of a nonzero a; never certifies, never splits moduli."""
    a = ia.ptrim(a)
    if not a:
        raise ValueError("cannot analyze the zero polynomial")
    cached = node._analyses.get(a)
    if cached is not None:
        return cached
    tower = node.tower
    r = node.order
    if r == 0:
        v = value(node, a)
        R = tower.p_trim(0, [tower.embed_int(c // tower.N ** v, 0) for c in a])
        gamma = tower.poly_to_elem(tower.p_divmod_monic(R, node.t)[1], 1)
        out = Analysis(v, 0, v, 0, v, 0, R, gamma, (a,))
    else:
        exp = expand(a, node.g)
        side = component(cloud(node.parent, exp.coeffs), node.h, node.e)
        R = residual(node.parent, exp.coeffs, side)
        nu = node.ellp * side.s0 - node.ell * side.u0
        gamma = tower.e_mul(tower.zpow(r + 1, nu), tower.poly_to_elem(
            tower.p_divmod_monic(R, node.t)[1], r + 1))
        out = Analysis(node.e * side.u0 + node.h * side.s0, side.s0, side.u0,
                       side.s1, side.u1, nu, R, gamma, exp.coeffs)
    node._analyses[a] = out
    node._values[a] = out.v
    return out


def value(node: SFType, a: IntPoly) -> int:
    """v_{node.order}(a) for a nonzero a, from values alone: no residuals.

    At order 0 it is the least ord_N of a coefficient; above, the least
    e * (v(a_s) + s * V) + h * s over the nonzero coefficients of the
    expansion of a by node.g.
    """
    a = ia.ptrim(a)
    v = node._values.get(a)
    if v is None:
        if node.order == 0:
            v = min(ia.ord_n(c, node.tower.N)[0] for c in a if c)
        else:
            v = min(node.e * u + node.h * s for s, u in
                    cloud(node.parent, expand(a, node.g).coeffs))
        node._values[a] = v
    return v


def cloud(node: SFType, coeffs) -> list[tuple[int, int]]:
    """The points (s, v(a_s) + s * V) over `node`, in ascending s, for the
    nonzero coefficients a_s of an expansion in powers of a representative
    of `node`, whose value V = v_{node.order}(g) `_pending_V` reads off."""
    V = _pending_V(node)
    return [(s, value(node, b) + s * V) for s, b in enumerate(coeffs) if b]


def component(points, h: int, e: int) -> Side:
    """The lambda-component of a cloud given in ascending s, lambda = h/e:
    the segment from the first to the last point attaining the minimum of
    e * u + h * s."""
    v = min(e * u + h * s for s, u in points)
    on = [(s, u) for s, u in points if e * u + h * s == v]
    return Side(h, e, *on[0], *on[-1])


def residual(node: SFType, coeffs, side: Side) -> PolyA:
    """Residual polynomial along `side` of an expansion as in `cloud`, over
    level node.order + 1: its j-th coefficient is the residue of a_{s0 + j e}
    if that point lies on the side, by its memoized value, else zero."""
    h, e, L = side.h, side.e, node.order + 1
    slope, line = e * _pending_V(node) + h, e * side.u0 + h * side.s0
    R = node.tower.p_trim(L, [
        analyze(node, coeffs[s]).gamma
        if coeffs[s] and e * value(node, coeffs[s]) + slope * s == line
        else node.tower.zero(L) for s in range(side.s0, side.s1 + 1, e)])
    if R.degree() != (side.s1 - side.s0) // e:
        raise RuntimeError("residual lost its leading coefficient")
    return R


def _certify(node: SFType, a: IntPoly) -> None:
    """Certify a is robust for the type at `node` (at order 0 every nonzero
    coefficient splits off a unit cofactor, above every expansion coefficient
    is certified at the parent) and its residual is coprime to node.t.
    FactorEvent on failure; `node._certified` remembers what passed."""
    a = ia.ptrim(a)
    if a in node._certified:
        return
    tower = node.tower
    if node.order == 0:
        tower.p_assert_strongly_unitary(PolyA(0, tuple(
            (ia.ord_n(c, tower.N)[1] % tower.N,) for c in a if c)))
    else:
        for b in analyze(node, a).coeffs:
            if b:
                _certify(node.parent, b)
    d = tower.p_gcd(analyze(node, a).R, node.t)
    if not tower.p_is_one(d):
        raise tower.factor_event(node.order, d)
    node._certified.add(a)


# ---------------------------------------------------------------------------
# public operators


def ord_ty(node: SFType, f: IntPoly) -> int:
    """Multiplicity of the node's modulus in the residual of f."""
    return ord_in_residual(node.tower, analyze(node, f).R, node.t)


def ord_in_residual(tower: AlgebraTower, R: PolyA, t: PolyA) -> int:
    k = 0
    while True:
        q, rem = tower.p_divmod_monic(R, t)
        if rem.coeffs or not q.coeffs and not rem.coeffs:
            return k
        k += 1
        R = q


def newton(node: SFType, exp: Expansion) -> NewtonPolygon:
    """Polygon of the expansion `exp` of f by a representative of `node`,
    certified; the tree passes f expanded through its principal part.

    The certificate makes f robust for the type about to be created on top
    of `node`: every coefficient is recursively robust and its residual is
    coprime to node.t.  Failures raise FactorEvent.
    """
    for b in exp.coeffs:
        if b:
            _certify(node, b)
    return NewtonPolygon.from_cloud(cloud(node, exp.coeffs))


def _pending_V(node: SFType) -> int:
    """v_{node.order}(g) for any representative g of node (the next level's V)."""
    return node.e * node.fdim * (node.e * node.V + node.h)


# ---------------------------------------------------------------------------
# representatives


def lift_order_zero(t: PolyA) -> IntPoly:
    """Monic lift with least nonnegative residues; robust since t is strongly unitary."""
    return ia.ptrim([c[0] for c in t.coeffs])


def representative(node: SFType) -> IntPoly:
    """Monic g of degree e*f*m with residual t; self-checked on construction.

    The construction can surface a factor of N or of a modulus while lifting
    coordinates that are not units; those escape as FactorEvents.
    """
    if node.order == 0:
        return lift_order_zero(node.t)
    e, h, fdim = node.e, node.h, node.fdim
    W = e * node.V + h
    g = ia.ppow(node.g, e * fdim)
    for j, alpha in enumerate(node.t.coeffs[:-1]):
        if node.tower.is_zero(alpha):
            continue
        a = construct_with_residue(node.parent, (fdim - j) * W, alpha)
        g = ia.padd(g, ia.pmul(a, ia.ppow(node.g, j * e)))
    _representative_self_check(node, g)
    return g


def _representative_self_check(node: SFType, g: IntPoly) -> None:
    width = node.e * node.fdim
    side = Side(node.h, node.e, 0, width * node.V + node.fdim * node.h,
                width, width * node.V)
    exp = expand(g, node.g)
    if newton(node.parent, exp).sides != (side,):
        raise RuntimeError("representative polygon check failed")
    if residual(node.parent, exp.coeffs, side) != node.t:
        raise RuntimeError("representative residual check failed")
    # the one-sided polygon gives v(g) = e * u1 + h * width
    node._values[ia.ptrim(g)] = _pending_V(node)


def construct_with_residue(node: SFType, v: int, alpha: tuple) -> IntPoly:
    """An a in Z[x], deg a < next-level degree, with value v and residue alpha.

    The postcondition (analyze(node, a).v == v and .gamma == alpha) is
    evaluated on every output.  Raises ValueError when no integer polynomial
    can attain the prescribed value, FactorEvent when lifting splits a
    modulus.
    """
    tower = node.tower
    if tower.is_zero(alpha):
        raise ValueError("residue target must be nonzero")
    if node.order == 0:
        if v < 0:
            raise ValueError("no integer polynomial attains a negative value")
        a = ia.ptrim([tower.N ** v * c for c in alpha])
    else:
        e, h = node.e, node.h
        s0 = (node.ell * v) % e
        u0, exact = divmod(v - s0 * h, e)
        if exact:
            raise RuntimeError("component abscissa out of residue class")
        nu0 = node.ellp * s0 - node.ell * u0
        twisted = tower.e_mul(tower.zpow(node.order + 1, -nu0), alpha)
        beta = tower.elem_to_poly(twisted, node.order + 1)
        a = ()
        for k, bk in enumerate(beta.coeffs):
            if tower.is_zero(bk):
                continue
            target = (u0 - k * h) - (s0 + k * e) * node.V
            if target < 0:
                raise ValueError("no integer polynomial attains the target value")
            b = construct_with_residue(node.parent, target, bk)
            a = ia.padd(a, ia.pmul(b, ia.ppow(node.g, s0 + k * e)))
    an = analyze(node, a)
    if an.v != v or an.gamma != alpha:
        raise RuntimeError("constructed polynomial failed its postcondition")
    return a


# ---------------------------------------------------------------------------
# polygon dumps


def polygon_dump(polygon: NewtonPolygon) -> str:
    """Line-oriented principal-part dump: vertex lines then side records."""
    lines = [f"{s} {u}" for s, u in polygon.principal_vertices]
    lines += [f"side {s.h}/{s.e} {s.s0} {s.s1}" for s in polygon.sides]
    return "\n".join(lines)


def polygon_svg(polygon: NewtonPolygon) -> str:
    """Minimal SVG rendering, 40 pixels per unit."""
    scale = 40
    pts = polygon.principal_vertices
    max_u = max(u for _, u in pts)
    width = (pts[-1][0] + 2) * scale
    height = (max_u + 2) * scale
    path = " ".join(
        f"{(s + 1) * scale},{(max_u - u + 1) * scale}" for s, u in pts
    )
    dots = "".join(
        f'<circle cx="{(s + 1) * scale}" cy="{(max_u - u + 1) * scale}" r="4"/>'
        for s, u in polygon.points
        if u <= max_u
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<polyline points="{path}" fill="none" stroke="black" stroke-width="2"/>'
        f"{dots}</svg>"
    )
