import importlib
import json

import pytest

from conftest import (example1, example2, example3, int_poly_at,
                      is_irreducible_over_z, poly_ints, refine_fixture,
                      shuffled_worklist)
from sfom import intarith as ia
from sfom.artinalg import AlgebraTower, FactorEvent
from sfom.sfom import SFOMRep, SplitOutcome, sfom

sfm = importlib.import_module("sfom.sfom")
st = importlib.import_module("sfom.sftypes")


def test_example1_tree():
    f = example1(35)
    out = sfom(f, 35)
    assert out.n_factor is None
    rep = out.rep
    assert len(rep.leaves) == 1
    leaf = rep.leaves[0]
    ch = leaf.chain()
    assert leaf.order == 2
    assert poly_ints(ch[0].t) == [0, 1]
    assert (ch[1].g, ch[1].h, ch[1].e) == ((0, 1), 1, 2)
    assert poly_ints(ch[1].t) == [1, 1]
    assert (ch[2].g, ch[2].h, ch[2].e) == ((35, 0, 1), 3, 2)
    assert poly_ints(ch[2].t) == [1, 1]
    assert rep.ramified


def test_a_representative_dividing_f_is_a_factor():
    # f = (x^2+1)^2 and x^2+1 mod 35 has multiplicity 2: the expansion
    # through a_omega is (0, 0, 1), whose first point lies right of s = 0
    with pytest.raises(sfm.ReducibleInput) as exc:
        sfom((1, 0, 2, 0, 1), 35)
    assert exc.value.factor == (1, 0, 1)


def test_example2_tree():
    f = example2(11, 3, 5)
    rep = sfom(f, 11).rep
    assert len(rep.leaves) == 1
    leaf = rep.leaves[0]
    assert leaf.order == 1 and (leaf.h, leaf.e) == (1, 2)
    want = ia.pmul(ia.pmul((1, 1), (2, 1)), (3, 1))
    assert poly_ints(leaf.t) == [c % 11 for c in want]


def test_example3_tree_small():
    N = 17 * 19
    f, phi = example3(1, N)
    rep = sfom(f, N).rep
    assert len(rep.leaves) == 1
    leaf = rep.leaves[0]
    ch = leaf.chain()
    assert leaf.order == 2
    assert (ch[1].h, ch[1].e) == (1, 2) and (ch[2].h, ch[2].e) == (2, 3)
    assert ch[2].g == phi
    assert poly_ints(ch[1].t) == [c % N for c in ia.pmul((1, 1), (-1, 1))]


def test_order_zero_leaf():
    rep = sfom((1, 0, 1), 35).rep
    assert len(rep.leaves) == 1 and rep.leaves[0].order == 0
    t = rep.order_zero_t()
    assert poly_ints(t) == [1, 0, 1]
    assert not rep.ramified


def test_factor_detected_with_mismatched_local_patterns():
    # squarefree shapes differ mod 5 and mod 7, so the run must split 35
    f = ia.padd(ia.pmul(ia.pmul((-1, 1), (-1, 1)), (-6, 1)), (35 * 5 * 7,))
    out = sfom(f, 35)
    if out.n_factor is not None:
        assert out.n_factor in (5, 7)
    else:  # pragma: no cover - the split is expected
        raise AssertionError("expected a factor of 35")


def test_n_factor_from_valuation_computation():
    # multiplying the modulus by a square of one prime exposes that prime in
    # the derivative gcd, reported as a factor of N
    f = example1(35)
    out = sfom(f, 35 * 35)
    assert out.n_factor == 35


def test_refine_fixture_organic():
    f = refine_fixture(35)
    assert is_irreducible_over_z(f)
    events = []
    orig = sfm._handle_event

    def spy(state, ev, ctx):
        events.append((ev.level, ev.factor))
        return orig(state, ev, ctx)

    sfm._handle_event = spy
    try:
        out = sfom(f, 35)
    finally:
        sfm._handle_event = orig
    assert [lvl for lvl, _ in events] == [1]
    assert poly_ints(events[0][1]) == [1, 1]
    rep = out.rep
    assert len(rep.leaves) == 2
    masses = sorted(leaf.e_prod() * leaf.f_prod() for leaf in rep.leaves)
    assert masses == [2, 2]
    t1s = sorted(poly_ints(leaf.trunc(1).t) for leaf in rep.leaves)
    assert t1s == [[1, 1], [2, 1]]  # y+1 and y+2


def _manual_state_for_injection():
    """Worklist with one order-1 pending type carrying t_1 = (y+1)(y+2)(y+3)."""
    f = example2(35, 3, 5)
    N = 35
    tower0 = AlgebraTower(N)
    red = tower0.p_from_int_poly(f)
    t0 = tower0.p_from_int_poly((0, 1))
    root = st.make_root(tower0, t0, 6, red)
    g1 = (0, 1)
    c1 = st.expand(f, g1).coeffs
    R1 = st.residual(root, c1, st.component(st.cloud(root, c1), 1, 2))
    t1 = root.tower.p_sfd(R1)[0][0]
    item = sfm._Item(root, g1, 1, 2, t1, R1, 1)
    state = sfm._State(tower0)
    state.worklist.append(item)
    return f, state, item, root


def test_refine_injected_split_of_level_one():
    # splitting t_1 = (y+1)(y+2)(y+3) off its (y+3) factor yields two stubs
    # with their multiplicities in R_1, then two leaves
    f, state, item, root = _manual_state_for_injection()
    tower = root.tower.extend(item.t)
    phi = int_poly_at(root.tower, (3, 1), 1)
    ev = tower.factor_event(1, phi)
    state.worklist.pop()  # the failed item leaves the worklist first
    sfm._handle_event(state, ev, item)
    assert len(state.worklist) == 2
    assert [it.omega for it in state.worklist] == [1, 1]
    ts = sorted(poly_ints(it.t) for it in state.worklist)
    assert ts == sorted([[3, 1], [c % 35 for c in ia.pmul((1, 1), (2, 1))]])
    while state.worklist:
        it = state.worklist.pop()
        sfm._process(state, it, f, AlgebraTower.p_sfd)
    assert len(state.leaves) == 2
    assert sum(l.e_prod() * l.f_prod() for l in state.leaves) == 6


def test_refine_injected_split_cascades_on_nonunit_piece():
    # splitting off (y+1) leaves the piece (y+2)(y+3) = y^2+5y+6, whose
    # certification exposes the factor 5 of 35
    f, state, item, root = _manual_state_for_injection()
    tower = root.tower.extend(item.t)
    phi = int_poly_at(root.tower, (1, 1), 1)
    state.worklist.pop()
    sfm._handle_event(state, tower.factor_event(1, phi), item)
    with pytest.raises(FactorEvent) as exc:
        while state.worklist:
            it = state.worklist.pop()
            try:
                sfm._process(state, it, f, AlgebraTower.p_sfd)
            except FactorEvent as ev2:
                sfm._handle_event(state, ev2, it)
    assert exc.value.level == -1 and exc.value.factor == 5


def test_refine_injected_split_of_root():
    # a split at level 0 truncates everything back to two fresh roots;
    # split events need a proper factor, so use a quadratic root
    f2 = ia.pmul(ia.pmul((1, 1), (2, 1)), (0, 0, 1))  # x^2(x+1)(x+2) shape mod 35
    tower0 = AlgebraTower(35)
    red = tower0.p_from_int_poly(f2)
    t0 = tower0.p_from_int_poly(ia.pmul((1, 1), (2, 1)))
    root2 = st.make_root(tower0, t0, 1, red)
    item2 = sfm._Item(None, None, 0, 1, t0, red, 1)
    state2 = sfm._State(tower0)
    ev = root2.tower.factor_event(0, tower0.p_from_int_poly((1, 1)))
    sfm._handle_event(state2, ev, item2)
    assert len(state2.worklist) == 2
    assert all(it.parent is None for it in state2.worklist)
    assert [it.omega for it in state2.worklist] == [1, 1]
    ts = sorted(poly_ints(it.t) for it in state2.worklist)
    assert ts == [[1, 1], [2, 1]]


def test_refine_cascade_escalates_to_n_factor():
    # planted quartic with a strongly unitary product of two non-unitary
    # quadratics: certifying a piece must surface the integer factor
    tower0 = AlgebraTower(35)
    phi = tower0.p_from_int_poly((5, 1, 1))
    psi = tower0.p_from_int_poly((7, 1, 1))
    t0 = tower0.p_mul(phi, psi)
    tower0.p_assert_strongly_unitary(t0)  # the product itself is fine
    red = t0
    item = sfm._Item(None, None, 0, 1, t0, red, 2)
    state = sfm._State(tower0)
    tower = tower0.extend(t0)
    ev = tower.factor_event(0, phi)
    sfm._handle_event(state, ev, item)
    assert len(state.worklist) == 2
    with pytest.raises(FactorEvent) as exc:
        while state.worklist:
            it = state.worklist.pop()
            try:
                sfm._process(state, it, (0, 0, 0, 0, 1), AlgebraTower.p_sfd)
            except FactorEvent as ev2:
                sfm._handle_event(state, ev2, it)
    assert exc.value.level == -1 and exc.value.factor in (5, 7)


def test_determinism_and_shuffle_invariance():
    f = example1(35)
    a = json.dumps(sfom(f, 35).rep.to_obj())
    b = json.dumps(sfom(f, 35).rep.to_obj())
    assert a == b
    # the leaves do not depend on the worklist order; example1's worklist
    # never holds two items, refine_fixture's does, and some seed reorders it
    moved = []
    for f in (example1(35), refine_fixture(35)):
        base = sorted(json.dumps(l) for l in sfom(f, 35).rep.to_obj()["leaves"])
        for seed in (1, 7, 99):
            with shuffled_worklist(seed) as shuffles:
                shuffled = sorted(json.dumps(l)
                                  for l in sfom(f, 35).rep.to_obj()["leaves"])
            assert shuffled == base
            assert bool(shuffles) == (f != example1(35))
            moved += shuffles
    assert any(moved)


def test_leaf_disjointness_and_mass(rng):
    # no leaf chain is a data-prefix of another; masses add to the degree
    for f, N in [(example1(35), 35), (example2(11, 3, 5), 11),
                 (refine_fixture(35), 35)]:
        rep = sfom(f, N).rep
        keys = [tuple((n.g, n.h, n.e, n.t.coeffs) for n in leaf.chain())
                for leaf in rep.leaves]
        for i, a in enumerate(keys):
            for j, b in enumerate(keys):
                if i != j:
                    assert a[:len(b)] != b and b[:len(a)] != a
        assert sum(l.e_prod() * l.f_prod() for l in rep.leaves) == ia.pdeg(f)


def test_serialized_tree_fields():
    rep = sfom(example1(35), 35).rep
    obj = rep.to_obj()
    assert obj["N"] == "35" and obj["prime"] is None
    node = obj["leaves"][0][1]
    assert set(node) == {"level", "t", "g", "lambda", "omega", "V"}
    assert node["lambda"] == [1, 2] and node["level"] == 1


def test_concurrent_runs_are_isolated():
    # distinct runs share no mutable state; concurrent execution agrees with
    # the sequential result
    import json
    import threading
    f = example1(35)
    inputs = [(f, 35), (example2(11, 3, 5), 11), ((1, 0, 1), 35),
              (refine_fixture(35), 35)]
    sequential = [json.dumps(sfom(g, N).rep.to_obj()) for g, N in inputs]
    results = [None] * len(inputs)

    def work(i):
        g, N = inputs[i]
        results[i] = json.dumps(sfom(g, N).rep.to_obj())

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(inputs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == sequential


def test_refine_replaces_existing_leaves():
    # a split at level 0 removes leaves under the matching root as well
    f, state, item, root = _manual_state_for_injection()
    # make a sibling leaf under the same root and a deep worklist item
    t0 = root.t
    sibling = st.make_child(root, (0, 1), 1, 2,
                            int_poly_at(root.tower, (4, 1), 1), 1,
                            item.residual_src)
    state.leaves.append(sibling)
    # t_0 = y is irreducible, so fake a quadratic root to have a splittable one
    tower0 = AlgebraTower(35)
    t0q = tower0.p_from_int_poly(ia.pmul((1, 1), (3, 1)))
    red = tower0.p_mul(t0q, t0q)
    rootq = st.make_root(tower0, t0q, 2, red)
    deep_t1 = int_poly_at(rootq.tower, (2, 1), 1)
    deep = sfm._Item(rootq, (3, 1, 1), 1, 1, deep_t1, deep_t1, 1)
    leafq = st.make_child(rootq, (3, 1, 1), 1, 1, deep_t1, 1, deep_t1)
    stateq = sfm._State(tower0)
    stateq.worklist.append(deep)
    stateq.leaves.append(leafq)
    ev = rootq.tower.factor_event(0, tower0.p_from_int_poly((1, 1)))
    sfm._handle_event(stateq, ev, deep)
    assert stateq.leaves == []          # the leaf under the split root is gone
    assert len(stateq.worklist) == 2    # replaced by the two root stubs
    assert sorted(poly_ints(it.t) for it in stateq.worklist) == [[1, 1], [3, 1]]


def _two_sided(N=77):
    """f = x^5 mod N whose root polygon has the two sides 1/2 and 2/3."""
    return ia.padd(ia.pmul((2 * N, 0, 1), (3 * N * N, 0, 0, 1)), (4 * N ** 4,))


_KEPT_POLYGON_TREES = pytest.mark.parametrize("f, N", [
    (example1(10007 * 10009), 10007 * 10009),
    *((example3(r, 10007 * 10009)[0], 10007 * 10009) for r in range(1, 6)),
    (refine_fixture(10007 * 10009), 10007 * 10009),
    (refine_fixture(35), 35),  # splits t_1 = (y + 1)(y + 2)
], ids=["example1", *(f"example3_r{r}" for r in range(1, 6)),
        "refine_fixture", "refine_fixture_35"])


@_KEPT_POLYGON_TREES
def test_nodes_keep_their_polygon(f, N):
    # every processed node keeps the certified polygon of the expansion it
    # keeps, the one its children's slopes came from; leaves keep none
    rep = sfom(f, N).rep
    processed = {id(node): node for leaf in rep.leaves
                 for node in leaf.chain()[:-1]}
    assert processed
    for node in processed.values():
        assert node.polygon == st.NewtonPolygon.from_cloud(
            st.cloud(node, node.f_exp.coeffs))
    for leaf in rep.leaves:
        assert leaf.polygon is None
        assert (leaf.h, leaf.e) in {(sd.h, sd.e)
                                    for sd in leaf.parent.polygon.sides}


@_KEPT_POLYGON_TREES
def test_each_polygon_side_is_the_component_of_its_slope(f, N):
    # the tree takes a residual along a side of the polygon and `analyze`
    # along the component of its own slope: one routine serves both because
    # every side is the component of the cloud for its slope
    rep = sfom(f, N).rep
    processed = {id(node): node for leaf in rep.leaves
                 for node in leaf.chain()[:-1]}
    checked = 0
    for node in processed.values():
        for side in node.polygon.sides:
            assert side == st.component(node.polygon.points, side.h, side.e)
            checked += 1
    assert checked


def test_two_sided_polygon_gives_two_leaves():
    # each negative side contributes its own multiplicity-one leaf
    N = 77
    f = _two_sided(N)
    assert is_irreducible_over_z(f)
    rep = sfom(f, N).rep
    assert len(rep.leaves) == 2
    slopes = sorted((l.h, l.e) for l in rep.leaves)
    assert slopes == [(1, 2), (2, 3)]
    assert len({leaf.trunc(0) for leaf in rep.leaves}) == 1
    assert sum(l.e_prod() * l.f_prod() for l in rep.leaves) == 5


def test_failed_level_commits_nothing():
    # the second side's decomposition fails after the first one succeeded:
    # neither the first side's children nor the root node may leak
    N = 77
    f = _two_sided(N)
    tower0 = AlgebraTower(N)
    red = tower0.p_from_int_poly(f)
    (t0, mult), = tower0.p_sfd(red)
    root = sfm._Item(None, None, 0, 1, t0, red, mult)
    state = sfm._State(tower0)
    calls = []

    def decompose(tower, R):
        calls.append(R)
        if len(calls) == 2:
            raise FactorEvent(-1, 7)
        return tower.p_sfd(R)

    with pytest.raises(FactorEvent):
        sfm._process(state, root, f, decompose)
    assert len(calls) == 2
    assert state.worklist == [] and state.leaves == []
