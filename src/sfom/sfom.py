"""Tree driver: grow the tree of types for (f, N) modulo a composite N.

The driver maintains a worklist of pending levels.  Every computation that
can hit a zero divisor raises a FactorEvent; events at level -1 abort the run
and report the integer factor, events at level i >= 0 split a modulus t_i and
replace all affected tree nodes by two truncated stubs (one per piece), which
re-enter the worklist with their multiplicity and representative recomputed.

The same driver runs the prime specialization: with a prime modulus and a
factorization hook instead of squarefree decomposition, no event can fire
and every modulus is irreducible but the order-0 leaf's.
"""

from __future__ import annotations

from . import intarith as ia
from . import sftypes as st
from .artinalg import AlgebraTower, FactorEvent, PolyA, Record
from .intarith import IntPoly


class ReducibleInput(ValueError):
    """f has the proper monic factor `factor` over Z; `factor` is None when
    an up-front flag fired without finding one."""

    def __init__(self, factor: IntPoly | None):
        super().__init__("polynomial is reducible over Z")
        self.factor = factor


class _Item(Record):
    """A pending level: a type-to-be of order (parent.order + 1 if parent else 0)."""

    __slots__ = ("parent", "g", "h", "e", "t", "residual_src", "omega")


class SFOMRep(Record):
    """Tree output: multiplicity-one leaves covering the reduction of f."""

    __slots__ = ("f", "N", "leaves", "prime")

    @property
    def ramified(self) -> bool:
        return any(leaf.e_prod() > 1 for leaf in self.leaves)

    def order_zero_t(self) -> PolyA | None:
        """Product of the order-zero leaf moduli (the multiplicity-one part)."""
        parts = [leaf for leaf in self.leaves if leaf.order == 0]
        if not parts:
            return None
        tower = parts[0].tower
        out = parts[0].t
        for leaf in parts[1:]:
            out = tower.p_mul(out, leaf.t)
        return out

    def to_obj(self) -> dict:
        leaves = []
        for leaf in self.leaves:
            chain = []
            for node in leaf.chain():
                elem_to_obj = node.tower.elem_to_obj
                chain.append({
                    "level": node.order,
                    "t": [elem_to_obj(c, node.order) for c in node.t.coeffs],
                    "g": None if node.g is None else [str(c) for c in node.g],
                    "lambda": [node.h, node.e],
                    "omega": node.omega,
                    "V": node.V,
                })
            leaves.append(chain)
        return {
            "f": [str(c) for c in self.f],
            "N": str(self.N),
            "prime": self.prime,
            "leaves": leaves,
        }


class SplitOutcome(Record):
    """Either a tree for (f, N) or a proper factor of N found on the way."""

    __slots__ = ("rep", "n_factor")


class _State:
    def __init__(self, tower0: AlgebraTower):
        self.tower0, self.worklist, self.leaves = tower0, [], []


def sfom(f: IntPoly, N: int) -> SplitOutcome:
    """Run the tree construction for f modulo the composite N.

    f must be monic of degree > 1 and is expected to be irreducible over the
    rationals; correctness of squarefree decompositions additionally needs
    every prime of N to exceed deg f, which the global driver arranges by
    stripping small primes first.
    """
    return _drive(f, N, AlgebraTower.p_sfd)


def _drive(f: IntPoly, N: int, decompose,
           prime: int | None = None) -> SplitOutcome:
    """Grow the tree; decompose(tower, R) splits a residual polynomial into
    (modulus, multiplicity) pairs."""
    f = ia.ptrim(f)
    n = ia.pdeg(f)
    if n < 2 or f[-1] != 1:
        raise ValueError("need a monic polynomial of degree > 1")
    state = _State(AlgebraTower(N))
    try:
        red = state.tower0.p_from_int_poly(f)
        # no moduli exist yet, so an event here can only split N itself
        for t0, mult in reversed(decompose(state.tower0, red)):
            state.worklist.append(_Item(None, None, 0, 1, t0, red, mult))
        steps = 0
        while state.worklist:
            steps += 1
            if steps > 1000 + 200 * n:
                raise RuntimeError("tree construction exceeded its step budget")
            item = state.worklist.pop()
            try:
                _process(state, item, f, decompose)
            except FactorEvent as ev:
                _handle_event(state, ev, item)
    except FactorEvent as ev:  # level -1: a factor of N ends the run
        return SplitOutcome(None, ev.factor)
    rep = SFOMRep(f, N, state.leaves, prime)
    _check_masses(rep)
    return SplitOutcome(rep, None)


def _process(state: _State, item: _Item, f: IntPoly, decompose) -> None:
    """Turn a pending level into a node; its children are committed only once
    every side has been decomposed, so a FactorEvent leaves the state as it was."""
    if item.parent is None:
        node = st.make_root(state.tower0, item.t, item.omega,
                            item.residual_src)
    else:
        node = st.make_child(item.parent, item.g, item.h, item.e, item.t,
                             item.omega, item.residual_src)
    if node.omega == 1:
        state.leaves.append(node)
        return
    g = st.representative(node)
    # the hull does not fall after the principal part, which ends at omega:
    # no later point attains a side's minimum, so f is expanded to a_omega
    node.f_exp = st.expand(f, g, node.omega + 1)
    polygon = node.polygon = st.newton(node, node.f_exp)
    if polygon.points[0][0] > 0:
        # f mod g = 0 over Z, and omega >= 2 gives deg f >= 2 deg g
        raise ReducibleInput(g)
    if polygon.principal_length != node.omega:
        raise RuntimeError("principal polygon length disagrees with multiplicity")
    children = []
    for side in polygon.sides:
        R = st.residual(node, node.f_exp.coeffs, side)
        for t2, mult in reversed(decompose(node.tower, R)):
            children.append(_Item(node, g, side.h, side.e, t2, R, mult))
    state.worklist.extend(children)


def _handle_event(state: _State, ev: FactorEvent, ctx: _Item) -> None:
    """Split a modulus: the failed item `ctx` has left the worklist; the split
    level and everything under it give way to two truncated stubs, each with
    its multiplicity in the split level's residual.  A factor of N (level -1)
    is re-raised to end the run."""
    if ev.level == -1:
        raise ev
    order = 0 if ctx.parent is None else ctx.parent.order + 1
    if ev.level > order:
        raise AssertionError("event above the active chain")
    # the split level is the failed item itself or one of its ancestors
    lvl = ctx if ev.level == order else ctx.parent.trunc(ev.level)
    parent = lvl.parent
    div_tower = parent.tower if parent is not None else state.tower0
    psi = div_tower.p_exact_divide(lvl.t, ev.factor)
    state.worklist = [it for it in state.worklist if it.parent is None
                      or it.parent.trunc(ev.level) is not lvl]
    state.leaves = [lf for lf in state.leaves if lf.trunc(ev.level) is not lvl]
    for piece in (ev.factor, psi):
        omega = st.ord_in_residual(div_tower, lvl.residual_src, piece)
        if omega < 1:
            raise RuntimeError("refined modulus does not divide its residual")
        state.worklist.append(_Item(parent, lvl.g, lvl.h, lvl.e, piece,
                                    lvl.residual_src, omega))


def _check_masses(rep: SFOMRep) -> None:
    mass: dict = {}  # root -> e*f summed over its leaves
    for leaf in rep.leaves:
        root = leaf.trunc(0)
        mass[root] = mass.get(root, 0) + leaf.e_prod() * leaf.f_prod()
    if any(mass[r] != r.omega * r.fdim for r in mass):
        raise RuntimeError("leaf degree mass does not match its root")
    if sum(r.omega * r.fdim for r in mass) != ia.pdeg(rep.f):
        raise RuntimeError("tree does not account for the full degree")
