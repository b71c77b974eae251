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

from dataclasses import dataclass, field
from fractions import Fraction

from . import intarith as ia
from .artinalg import AlgebraTower, PolyA
from .intarith import IntPoly

# ---------------------------------------------------------------------------
# Newton polygons


@dataclass(frozen=True)
class Side:
    """A negative-slope side; geometric slope is -h/e with gcd(h, e) = 1."""

    h: int
    e: int
    s0: int
    u0: int
    s1: int
    u1: int

    @property
    def width(self) -> int:
        return self.s1 - self.s0


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of a cloud of integer points (s, u)."""

    points: tuple  # cloud, sorted by abscissa
    vertices: tuple  # hull corner points
    sides: tuple  # negative-slope sides, left to right

    @classmethod
    def from_cloud(cls, points) -> "NewtonPolygon":
        pts = sorted(points)
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
            g = ia.math.gcd(y1 - y2, x2 - x1)
            sides.append(Side((y1 - y2) // g, (x2 - x1) // g, x1, y1, x2, y2))
        return cls(tuple(pts), tuple(hull), tuple(sides))

    @property
    def principal_length(self) -> int:
        return self.sides[-1].s1 if self.sides else self.vertices[0][0]

    @property
    def principal_vertices(self) -> tuple:
        if not self.sides:
            return (self.vertices[0],)
        verts = [(self.sides[0].s0, self.sides[0].u0)]
        verts += [(s.s1, s.u1) for s in self.sides]
        return tuple(verts)

    def min_value(self, h: int, e: int) -> int:
        return min(e * u + h * s for s, u in self.vertices)

    def component(self, h: int, e: int) -> tuple[int, int, int, int]:
        """Endpoints (s0, u0, s1, u1) of the segment where e*u + h*s is minimal."""
        m = self.min_value(h, e)
        on = [(s, u) for s, u in self.vertices if e * u + h * s == m]
        return on[0][0], on[0][1], on[-1][0], on[-1][1]


# ---------------------------------------------------------------------------
# g-adic expansions


@dataclass(frozen=True)
class Expansion:
    """Canonical g-expansion f = sum a_s g^s plus the division-chain quotients.

    quotients[s-1] is the s-th quotient q_s, so that q_s = a_s + a_{s+1} g + ...
    """

    coeffs: tuple
    quotients: tuple


def expand(f: IntPoly, g: IntPoly) -> Expansion:
    """Expand f in powers of the monic g; coefficients have degree < deg g."""
    if ia.pdeg(g) < 1:
        raise ValueError("expansion base must have positive degree")
    coeffs = []
    quots = []
    cur = f
    while cur:
        q, a = ia.pdivmod_monic(cur, g)
        coeffs.append(a)
        if q:
            quots.append(q)
        cur = q
    if not coeffs:
        coeffs = [()]
    return Expansion(tuple(coeffs), tuple(quots))


# ---------------------------------------------------------------------------
# type nodes


@dataclass(eq=False)
class SFType:
    """A type of order `order`; nodes form a tree through `parent` links.

    Level data of the top level: representative g (degree m), slope h/e,
    modulus t = tower.moduli[order], value V = v_{order-1}(g), Bezout pair
    (ell, ellp) with ell*h + ellp*e = 1 and 0 <= ell < e.  `omega` is the
    multiplicity of t inside `residual_src`, the residual polynomial this
    level's modulus was extracted from (the reduction of f for roots).
    `f_exp` is the expansion of f by the representative of this node, kept
    by the tree driver for the basis stage once it has processed the node.
    """

    parent: SFType | None
    order: int
    tower: AlgebraTower
    g: IntPoly | None
    h: int
    e: int
    V: int
    m: int
    ell: int
    ellp: int
    omega: int
    residual_src: PolyA
    _analyses: dict = field(default_factory=dict, repr=False)
    _values: dict = field(default_factory=dict, repr=False)
    _certified: set = field(default_factory=set, repr=False)
    f_exp: Expansion | None = field(default=None, repr=False)

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
        return ia.math.prod(n.e for n in self.chain())

    def f_prod(self) -> int:
        return ia.math.prod(n.fdim for n in self.chain())


def make_root(tower0: AlgebraTower, t0: PolyA, omega: int,
              residual_src: PolyA) -> SFType:
    tower = tower0.extend(t0)
    return SFType(None, 0, tower, None, 0, 1, 0, 1, 0, 1, omega, residual_src)


def make_child(parent: SFType, g: IntPoly, h: int, e: int, t: PolyA,
               omega: int, residual_src: PolyA) -> SFType:
    if ia.math.gcd(h, e) != 1 or h < 1 or e < 1:
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
    # V_r / (e_1...e_{r-1}) == sum_{1<=j<r} (m_r/m_j) h_j / (e_1...e_j)
    chain = node.chain()
    total = Fraction(0)
    eprod = 1
    for lvl in chain[1:-1]:
        eprod *= lvl.e
        total += Fraction(node.m, lvl.m) * Fraction(lvl.h, eprod)
    assert Fraction(node.V, eprod) == total


# ---------------------------------------------------------------------------
# analysis: valuation, component, residual, evaluated residual


@dataclass(frozen=True)
class Analysis:
    """Level data of a nonzero integer polynomial with respect to a type node.

    v is the scaled valuation, (s0, u0)-(s1, u1) the lambda-component of the
    principal polygon, nu the twist exponent, R the residual polynomial over
    level `order`, gamma = z^nu * R(z) in level order+1.
    """

    v: int
    polygon: NewtonPolygon | None
    s0: int
    u0: int
    s1: int
    u1: int
    nu: int
    R: PolyA
    gamma: tuple
    coeffs: tuple


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
        v, R = _reduce0(tower, a)
        gamma = tower.p_eval_up(R, tower.z(1))
        out = Analysis(v, None, 0, v, 0, v, 0, R, gamma, (a,))
    else:
        exp = expand(a, node.g)
        polygon, v, (s0, u0, s1, u1), R = _residual(
            node.parent, exp.coeffs, node.V, node.h, node.e)
        nu = node.ellp * s0 - node.ell * u0
        gamma = tower.e_mul(
            tower.zpow(r + 1, nu), tower.p_eval_up(R, tower.z(r + 1))
        )
        out = Analysis(v, polygon, s0, u0, s1, u1, nu, R, gamma, exp.coeffs)
    node._analyses[a] = out
    return out


def _reduce0(tower: AlgebraTower, a: IntPoly) -> tuple[int, PolyA]:
    """(v, R) for a nonzero a: v = ord_N of its content, R = a / N^v mod N."""
    N = tower.N
    v = min(ia.ord_n(c, N)[0] for c in a if c)
    return v, tower.p_trim(0, [tower.embed_int(c // N ** v, 0) for c in a])


def value(node: SFType, a: IntPoly) -> int:
    """v_{node.order}(a) for a nonzero a, from values alone: no residuals.

    At order 0 it is the least ord_N of a coefficient; above, the least
    e * (v(a_s) + s * V) + h * s over the nonzero coefficients of the
    expansion of a by node.g.
    """
    a = ia.ptrim(a)
    cached = node._analyses.get(a)
    if cached is not None:
        return cached.v
    v = node._values.get(a)
    if v is None:
        if node.order == 0:
            v = min(ia.ord_n(c, node.tower.N)[0] for c in a if c)
        else:
            v = cloud(node.parent, expand(a, node.g).coeffs,
                      node.V).min_value(node.h, node.e)
        node._values[a] = v
    return v


def cloud(node: SFType, coeffs, V: int) -> NewtonPolygon:
    """Polygon of the points (s, v(a_s) + s * V) over `node`, for the nonzero
    coefficients a_s of an expansion in powers of some g with
    v_{node.order}(g) = V."""
    return NewtonPolygon.from_cloud(
        [(s, value(node, b) + s * V) for s, b in enumerate(coeffs) if b])


def _residual(node: SFType, coeffs, V: int, h: int, e: int) -> tuple:
    """Residual polynomial operator for slope -h/e on an expansion over `node`.

    Returns (polygon, v, (s0, u0, s1, u1), R): v is the minimum of
    e * u + h * s over the cloud, (s0, u0)-(s1, u1) the component where it is
    attained, and R the polynomial over level node.order + 1 whose j-th
    coefficient is the residue of a_{s0 + j e} if that point lies on the
    component, else zero.  Only the points on the component are analyzed.
    """
    polygon = cloud(node, coeffs, V)
    v = polygon.min_value(h, e)
    s0, u0, s1, u1 = polygon.component(h, e)
    on = {s for s, u in polygon.points if e * u + h * s == v}
    tower = node.tower
    L = node.order + 1
    R = tower.p_trim(L, [analyze(node, coeffs[s]).gamma if s in on
                         else tower.zero(L) for s in range(s0, s1 + 1, e)])
    if R.degree() != (s1 - s0) // e:
        raise RuntimeError("residual lost its leading coefficient")
    return polygon, v, (s0, u0, s1, u1), R


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
        for c in a:
            if c:
                _, b = ia.ord_n(c, tower.N)
                g = ia.math.gcd(b, tower.N)
                if g != 1:
                    raise tower.factor_event(-1, g)
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


def vr(node: SFType, f: IntPoly) -> int | None:
    """Scaled pseudo-valuation of order `node.order`; None for f = 0."""
    if not ia.ptrim(f):
        return None
    return value(node, f)


def nu(node: SFType, a: IntPoly) -> int:
    return analyze(node, a).nu


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


def newton(node: SFType, exp: Expansion, bound: int) -> NewtonPolygon:
    """Polygon of the first bound+1 points of the expansion `exp` of f by a
    representative of `node`, certified.

    The certificate makes f robust for the type about to be created on top
    of `node`: every used coefficient is recursively robust and its residual
    is coprime to node.t.  Failures raise FactorEvent.
    """
    coeffs = exp.coeffs[:bound + 1]
    for b in coeffs:
        if b:
            _certify(node, b)
    return cloud(node, coeffs, _pending_V(node))


def _pending_V(node: SFType) -> int:
    """v_{node.order}(g) for any representative g of node (the next level's V)."""
    return node.e * node.fdim * (node.e * node.V + node.h)


def residual_of(node: SFType, exp: Expansion, h: int, e: int) -> PolyA:
    """Residual polynomial for slope -h/e of f, given by its expansion `exp`
    by a representative of `node`, over the pending level.

    Coefficients live in level node.order + 1; robustness of f is assumed to
    have been certified by `newton` for this same expansion.
    """
    if ia.math.gcd(h, e) != 1:
        raise ValueError("slope must be reduced")
    return _residual(node, exp.coeffs, _pending_V(node), h, e)[-1]


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
    e, h, fdim = node.e, node.h, node.fdim
    width = e * fdim
    exp = expand(g, node.g)
    polygon = newton(node.parent, exp, width)
    ok = (
        len(polygon.sides) == 1
        and (polygon.sides[0].h, polygon.sides[0].e) == (h, e)
        and (polygon.sides[0].s0, polygon.sides[0].s1) == (0, width)
        and polygon.sides[0].u1 == width * node.V
    )
    if not ok:
        raise RuntimeError("representative polygon check failed")
    R = residual_of(node.parent, exp, h, e)
    if R != node.t:
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
# order-zero residual and polygon dumps


def r0(a: IntPoly, N: int) -> tuple[int, PolyA]:
    """(v, R) with v = ord_N(a) and R the reduction of a / N^v."""
    a = ia.ptrim(a)
    if not a:
        raise ValueError("r0 of zero")
    return _reduce0(AlgebraTower(N), a)


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
