import random
import sys
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrkit.bounds as B
import ekrkit.families as F
import ekrkit.treegen as T
import ekrkit.verify as V
from ekrkit.families import TREE_DP, all_independent_sets, count_rsets, enum_independent_rsets
from ekrkit.graphs import (Graph, GraphError, SpiderSpec, automorphism_generators, generate,
                           max_independent_set_size)
from ekrkit.treegen import free_trees, search_catalog

import helpers as H


def _engine_cases():
    rng = random.Random(421)
    cases = [
        (generate("path:6"), 2),
        (generate("path:8"), 3),
        (generate("cycle:7"), 2),
        (generate("cycle:9"), 3),
        (generate("star:4"), 2),
        (generate("spider:2,2,2"), 2),
        (generate("spider:1,2,3"), 2),
        (generate("empty:7"), 3),
        (generate("empty:8"), 3),
        (generate("kpartite:3,3"), 2),
        (generate("tristar:1"), 2),
    ]
    for _ in range(9):
        n = rng.randint(4, 9)
        g = Graph(n, H.random_graph_edges(rng, n, rng.randint(0, n)))
        cases.append((g, rng.choice([2, 3])))
    def n_cands(g, r):
        return sum(1 for _ in enum_independent_rsets(g, r))

    return [(g, r) for g, r in cases if 1 <= n_cands(g, r) <= 20]


@pytest.mark.parametrize("g,r", _engine_cases())
def test_max_family_matches_brute_force(g, r):
    cands = list(enum_independent_rsets(g, r))
    rep = V.is_r_ekr(g, r)
    best, _ = H.brute_max_intersecting(cands, empty_common_only=False)
    assert rep.max_intersecting_size == best
    ns = V.max_nonstar_intersecting(g, r)
    nbest, _ = H.brute_max_intersecting(cands, empty_common_only=True)
    assert ns.max_intersecting_size == nbest
    # verdict consistency between the two entry points
    if nbest > rep.max_star_size:
        assert ns.verdict == V.NOT_EKR
    elif nbest == rep.max_star_size:
        assert ns.verdict == V.EKR
    else:
        assert ns.verdict == V.STRICTLY_EKR


@pytest.mark.parametrize("g,r", _engine_cases())
def test_witnesses_check_out(g, r):
    rep = V.is_r_ekr(g, r)
    assert len(rep.witness) == rep.max_intersecting_size
    assert V.is_intersecting(rep.witness)
    if rep.verdict == V.NOT_EKR:
        assert V.star_center(rep.witness).center is None
    else:  # a full star certifies the ekr verdicts
        assert V.star_center(rep.witness).center is not None
    ns = V.max_nonstar_intersecting(g, r)
    if ns.max_intersecting_size:
        assert len(ns.witness) == ns.max_intersecting_size
        assert V.is_intersecting(ns.witness)
        assert V.star_center(ns.witness).center is None
    else:
        assert ns.witness == ()


def test_star_center_and_is_intersecting():
    assert V.star_center((0b011, 0b101, 0b111)).center == 0
    assert V.star_center((0b110, 0b010)).center == 1
    assert V.star_center((0b011, 0b110, 0b101)).center is None
    empty = V.star_center(())
    assert empty.center is None and empty.empty_family
    assert not V.star_center((0b11,)).empty_family
    assert V.is_intersecting((0b011, 0b110, 0b101))
    assert not V.is_intersecting((0b001, 0b110))
    assert V.is_intersecting(())


def test_classical_ekr_on_empty_graphs():
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            rep = V.is_r_ekr(generate(f"empty:{n}"), r)
            assert rep.verdict == V.EKR
            assert rep.max_intersecting_size == comb(n - 1, r - 1)
            strict = V.is_strictly_r_ekr(generate(f"empty:{n}"), r)
            if 2 * r < n or (n, r) == (2, 1):
                assert strict.verdict == V.STRICTLY_EKR
            else:
                assert strict.verdict == V.EKR


def test_nonstar_max_hits_hilton_milner_value():
    for n in range(4, 9):
        for r in range(2, n // 2 + 1):
            ns = V.max_nonstar_intersecting(generate(f"empty:{n}"), r)
            assert ns.max_intersecting_size == comb(n - 1, r - 1) - comb(n - r - 1, r - 1) + 1


def test_r_equals_one_nonstar_is_zero():
    for spec in ("empty:5", "path:6", "cycle:5", "kpartite:3,3"):
        ns = V.max_nonstar_intersecting(generate(spec), 1)
        assert ns.max_intersecting_size == 0
        assert ns.witness == ()
        assert ns.verdict == V.STRICTLY_EKR


def test_balanced_bipartite_counterexample():
    rep = V.is_r_ekr(generate("kpartite:3,3"), 2)
    assert rep.verdict == V.NOT_EKR
    assert rep.max_star_size == 2
    assert rep.max_intersecting_size == 3
    assert rep.witness is not None and len(rep.witness) == 3


def test_spider_is_ekr_at_small_r():
    rep = V.is_r_ekr(generate("spider:2,2,2"), 2)
    assert rep.verdict == V.EKR
    assert rep.max_star_size == 5
    assert len(rep.witness) == 5
    assert V.star_center(rep.witness).center is not None


def test_report_json_schema():
    d = V.is_r_ekr(generate("kpartite:3,3"), 2).to_json_dict()
    assert d["verdict"] == "not_ekr"
    assert d["witness"] == [[0, 1], [0, 2], [1, 2]]
    assert set(d) == {"r", "verdict", "max_star_vertex", "max_star_size",
                      "max_intersecting_size", "witness", "nodes_explored"}
    d2 = V.is_r_ekr(generate("path:5"), 2).to_json_dict()
    assert d2["witness"] == [[0, 2], [0, 3], [0, 4]]  # the certifying full star


def test_budget_exhaustion_and_env_default():
    rep = V.is_r_ekr(generate("empty:9"), 4, budget=V.SearchBudget(1))
    assert rep.verdict == V.BUDGET_EXCEEDED
    # the best star stands in as the provisional answer
    assert rep.max_intersecting_size >= rep.max_star_size
    assert V.is_intersecting(rep.witness)
    assert V.SearchBudget().max_nodes == V.DEFAULT_MAX_NODES
    with pytest.raises(ValueError):
        V.SearchBudget(0)


def _report_dict(verdict, star, star_size, size, witness, nodes, r=3):
    return {"r": r, "verdict": verdict, "max_star_vertex": star, "max_star_size": star_size,
            "max_intersecting_size": size, "witness": witness, "nodes_explored": nodes}


_STAR_0_OF_EMPTY_8 = [[0, a, b] for b in range(2, 8) for a in range(1, b)]
# the Hilton-Milner family of A = {0, 1, 2} and x = 3: the nonstar maximum
_HM_OF_EMPTY_8 = ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
                  + [[x, 3, y] for y in range(4, 8) for x in range(3)])


@pytest.mark.parametrize("search,spec,r,budget,want", [
    # out of budget before any witness: the best star (for the nonstar
    # maximum, the largest Hilton-Milner-type family) stands in
    (V.is_strictly_r_ekr, "empty:8", 3, 1,
     _report_dict(V.BUDGET_EXCEEDED, 0, 21, 21, _STAR_0_OF_EMPTY_8, 2)),
    (V.max_nonstar_intersecting, "empty:8", 3, 1,
     _report_dict(V.BUDGET_EXCEEDED, 0, 21, 16, _HM_OF_EMPTY_8, 2)),
    (V.nonuniform_ekr, "path:6", None, 1,
     _report_dict(V.BUDGET_EXCEEDED, 0, 8, 8,
                  [[0], [0, 2], [0, 3], [0, 4], [0, 2, 4], [0, 5], [0, 2, 5], [0, 3, 5]],
                  2, r=None)),
    # out of budget after a witness was found
    (V.is_strictly_r_ekr, "empty:6", 3, 11,
     _report_dict(V.BUDGET_EXCEEDED, 0, 10, 10,
                  [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 4], [0, 2, 4],
                   [1, 2, 4], [0, 3, 4], [1, 3, 4], [2, 3, 4]], 12)),
    (V.max_nonstar_intersecting, "empty:8", 3, 50,
     _report_dict(V.BUDGET_EXCEEDED, 0, 21, 16, _HM_OF_EMPTY_8, 51)),
    (V.nonuniform_ekr, "spider:2,2,2", None, 6,
     _report_dict(V.BUDGET_EXCEEDED, 2, 13, 13,
                  [[2], [0, 2], [2, 3], [2, 4], [0, 2, 4], [2, 5], [2, 3, 5], [2, 4, 5],
                   [2, 6], [0, 2, 6], [2, 3, 6], [2, 4, 6], [0, 2, 4, 6]], 7, r=None)),
])
def test_budget_exceeded_reports_are_pinned(search, spec, r, budget, want):
    args = (generate(spec),) if r is None else (generate(spec), r)
    assert search(*args, budget=V.SearchBudget(budget)).to_json_dict() == want


def test_search_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        rep = V.nonuniform_ekr(generate("empty:7"))
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)
    assert rep.verdict == V.EKR and rep.max_intersecting_size == 2 ** 6


def test_input_validation():
    with pytest.raises(GraphError):
        V.is_r_ekr(generate("path:5"), 0)
    with pytest.raises(GraphError):
        V.is_r_ekr(generate("path:5"), 4)  # no independent 4-sets


def test_nonuniform_on_empty_graphs():
    for n in range(1, 6):
        rep = V.nonuniform_ekr(generate(f"empty:{n}"))
        assert rep.max_intersecting_size == 2 ** (n - 1)
        assert rep.verdict == V.EKR
        assert rep.r is None
        if n <= 4:  # brute force scans all 2^k subfamilies
            brute, _ = H.brute_max_intersecting(
                H.brute_all_independent_sets(n, []), empty_common_only=False)
            assert rep.max_intersecting_size == brute


def test_nonuniform_on_paths_matches_brute():
    for n in range(2, 7):
        g = generate(f"path:{n}")
        rep = V.nonuniform_ekr(g)
        cands = H.brute_all_independent_sets(n, g.edges())
        brute, _ = H.brute_max_intersecting(cands, empty_common_only=False)
        assert rep.max_intersecting_size == brute


def test_hk_on_trees():
    rep = V.is_r_hk(generate("path:6"), 2)
    assert rep.holds and rep.best_is_leaf
    assert rep.best_vertex in (0, 5)
    assert len(rep.star_sizes) == 6
    spider = V.is_r_hk(generate("spider:2,2,2"), 2)
    assert spider.holds
    assert spider.star_sizes[spider.best_vertex] == max(spider.star_sizes)
    with pytest.raises(GraphError):
        V.is_r_hk(generate("cycle:5"), 2)
    # n - 1 edges, disconnected, with a cycle: the tree DP's forest check
    # rejects it, with the same message for any r
    for r in (1, 2, 0, 99):
        with pytest.raises(GraphError, match="leaf-maximum verdicts need a tree"):
            V.is_r_hk(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), r)
    with pytest.raises(GraphError, match="leaf-maximum verdicts need a tree"):
        V.is_r_hk(Graph(4, [(0, 1), (2, 3)]), 1)
    with pytest.raises(GraphError):
        V.is_r_hk(generate("path:4"), 3)  # r exceeds independence number


def test_hk_prefers_leaf_on_ties():
    # single vertex: the lone vertex is a leaf by the degree <= 1 convention
    rep = V.is_r_hk(Graph(1, []), 1)
    assert rep.holds and rep.best_is_leaf and rep.best_vertex == 0
    # star: every leaf ties at C(n-2, r-1)+... -- leaf must win the report
    rep = V.is_r_hk(generate("star:4"), 2)
    assert rep.holds and rep.best_is_leaf



def test_star_verdicts_match_per_vertex_route_on_spiders():
    # the reports as built from one tree DP per vertex
    for n in range(4, 13):
        for legs in H.iter_partitions(n - 1, min_parts=3):
            spec = SpiderSpec(legs)
            g = spec.realize()
            leaves = [v for v in range(n) if g.degree(v) <= 1]
            for r in range(1, max_independent_set_size(g) + 1):
                sizes = tuple(count_rsets(g, r, anchor=v, method=TREE_DP).count for v in range(n))
                top = max(sizes)
                holds = any(sizes[v] == top for v in leaves)
                best = next((v for v in leaves if sizes[v] == top), sizes.index(top))
                assert V.is_r_hk(g, r) == V.HkReport(r, holds, best, holds, sizes)
                # the rest of the order report is a function of the sizes
                assert V.spider_order_check(spec, r).star_sizes == sizes

def test_spider_order_check():
    rep = V.spider_order_check(SpiderSpec((2, 2, 2)), 2)
    assert rep.ok and rep.violations == ()
    assert rep.r == 2 and rep.legs == (2, 2, 2)
    assert rep.star_sizes == (3, 4, 5, 4, 5, 4, 5)
    rep135 = V.spider_order_check(SpiderSpec((1, 3, 5)), 2)
    assert rep135.ok
    mixed = V.spider_order_check(SpiderSpec((3, 2, 4, 1)), 3)
    assert mixed.ok
    leaf_stars = [mixed.star_sizes[SpiderSpec((3, 2, 4, 1)).leaf_vertex(i)]
                  for i in range(4)]
    assert mixed.star_sizes[0] <= max(leaf_stars)  # centre never beats all leaves
    d = mixed.to_json_dict()
    assert d["ok"] is True and d["violations"] == []
    with pytest.raises(GraphError):
        V.spider_order_check(SpiderSpec((2, 2, 2)), 9)
    # r = 4 fits in n = 4 but exceeds alpha = 3, and r = 0 has no star: both are
    # rejected as is_r_hk rejects them, not reported ok over all-zero sizes
    for r in (4, 0):
        with pytest.raises(GraphError, match="independent 4-sets" if r else "r >= 1"):
            V.spider_order_check(SpiderSpec((1, 1, 1)), r)
        with pytest.raises(GraphError, match="independent 4-sets" if r else "r >= 1"):
            V.is_r_hk(generate("spider:1,1,1"), r)


def test_spider_order_check_reports_each_rule(monkeypatch):
    # no small spider breaks a rule, so forced star sizes break each one once:
    # the centre beats leaf v_3, vertex 3 on that leg beats it too, and leaf
    # v_2 beats the earlier leaf v_1
    monkeypatch.setattr(V, "_star_sizes", lambda t, r: (5, 7, 8, 9, 4))
    d = V.spider_order_check(SpiderSpec((1, 1, 2)), 2).to_json_dict()
    assert d["ok"] is False
    assert d["violations"] == [["centre<=leaf", "s(0)=5 > s(v_3)=4"],
                               ["path<=leaf", "s(3)=9 > s(v_3)=4"],
                               ["later<=earlier", "s(v_2)=8 > s(v_1)=7"]]


# -- orbital branching ------------------------------------------------------

SEARCHES = (V.is_r_ekr, V.is_strictly_r_ekr, V.max_nonstar_intersecting)


def _plain(monkeypatch):
    """Make every search branch without symmetry."""
    monkeypatch.setattr(V, "automorphism_generators", lambda g, setwise=0: [])


def _check_witness(g, rep, search):
    assert len(rep.witness) == rep.max_intersecting_size
    assert V.is_intersecting(rep.witness)
    for m in rep.witness:
        assert g.is_independent(m) and (rep.r is None or m.bit_count() == rep.r)
    # a star certifies ekr and strictly_ekr, except that the strict search
    # proves plain ekr with a maximum family that is not a star
    nonstar = (search is V.max_nonstar_intersecting or rep.verdict == V.NOT_EKR
               or (search is V.is_strictly_r_ekr and rep.verdict == V.EKR))
    assert (V.star_center(rep.witness).center is None) == nonstar


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_orbital_search_matches_plain_search(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    g = Graph(n, edges)
    runs = [(fn, r) for r in range(1, max_independent_set_size(g) + 1) for fn in SEARCHES]
    orbital = [fn(g, r) for fn, r in runs] + [V.nonuniform_ekr(g)]
    with pytest.MonkeyPatch.context() as mp:
        _plain(mp)
        plain = [fn(g, r) for fn, r in runs] + [V.nonuniform_ekr(g)]
    for (fn, _), a, b in zip(runs + [(V.nonuniform_ekr, None)], orbital, plain):
        assert (a.verdict, a.max_intersecting_size) == (b.verdict, b.max_intersecting_size)
        assert (a.max_star_vertex, a.max_star_size) == (b.max_star_vertex, b.max_star_size)
        _check_witness(g, a, fn)


def _assert_fewer_nodes_same_json(g, r, monkeypatch):
    orbital = [fn(g, r) for fn in SEARCHES]
    _plain(monkeypatch)
    plain = [fn(g, r) for fn in SEARCHES]
    for a, b in zip(orbital, plain):
        assert a.to_json_dict() | {"nodes_explored": 0} == b.to_json_dict() | {"nodes_explored": 0}
        assert a.nodes_explored < b.nodes_explored


@pytest.mark.parametrize("n", [7, 8, 9])
def test_orbital_search_explores_fewer_nodes_on_edgeless_graphs(n, monkeypatch):
    _assert_fewer_nodes_same_json(generate(f"empty:{n}"), 3, monkeypatch)


@pytest.mark.parametrize("spec", ["spider:4,4,4", "spider:3,3,3,3"])
def test_orbital_search_explores_fewer_nodes_on_spiders(spec, monkeypatch):
    _assert_fewer_nodes_same_json(generate(spec), 4, monkeypatch)


def test_orbit_masks_match_permutation_closure():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = Graph(n, H.random_graph_edges(rng, n, rng.randint(0, 2 * n)))
        setwise = rng.randrange(1 << n)
        gens = automorphism_generators(g, setwise=setwise)
        sets = all_independent_sets(g)  # mapped onto itself by every automorphism
        index = {s: i for i, s in enumerate(sets)}
        group = H.perm_closure(gens, n)
        for s in sets:
            want = sum({1 << index[H.mask(p[v] for v in H.bits(s))] for p in group})
            assert V._orbit(s, V._moving(gens), index) == want, (n, g.edges(), setwise, s)


@pytest.fixture(scope="module")
def tree_pin_reports():
    # every free tree with n <= 11 at r <= min(3, alpha), and two spiders at
    # r = 4: the three searches on each
    cases = [(t, r) for n in range(1, 12) for t in free_trees(n)
             for r in range(1, min(3, max_independent_set_size(t)) + 1)]
    cases += [(generate("spider:4,4,4"), 4), (generate("spider:3,3,3,3"), 4)]
    assert len(cases) == 1304
    return [fn(g, r) for g, r in cases for fn in SEARCHES]


@pytest.fixture(scope="module")
def non_tree_pin_reports():
    # beyond trees, where Aut(G) comes from the refinement search: the three
    # searches on every nonempty graph of the networkx atlas (n <= 7) at
    # r <= min(3, alpha) and on the verdict benchmark's fixed instances, then
    # nonuniform_ekr on every atlas graph
    atlas = [Graph(a.number_of_nodes(), list(a.edges()))
             for a in nx.graph_atlas_g() if a.number_of_nodes()]
    cases = [(g, r) for g in atlas
             for r in range(1, min(3, max_independent_set_size(g)) + 1)]
    cases += [(generate(f"empty:{n}"), 3) for n in (9, 10, 11)]
    cases += [(generate("cycle:12"), 4), (generate("kpartite:3,3,3"), 2),
              (generate("kpartite:3,3"), 2)]
    cases += [(generate(f"spider:{legs}"), 5) for legs in ("1,3,4,5", "3,3,3,3", "2,3,4")]
    assert len(cases) == 3586
    return [fn(g, r) for g, r in cases for fn in SEARCHES] + [V.nonuniform_ekr(g) for g in atlas]


def test_search_outputs_are_pinned(tree_pin_reports):
    # nodes_explored included, so a change to the symmetry set-up cannot show
    # only as changed node counts
    assert H.report_digest(tree_pin_reports) == (
        "3d21b34349ee37dfdbc52fc68789fe86e114769a18e863b7ee4e71685de6c7ca")


def test_non_tree_search_outputs_are_pinned(non_tree_pin_reports):
    assert H.report_digest(non_tree_pin_reports) == (
        "dee1d862c857ef4ad07ad3e17d510c7504fade7a4e6f9e5ce27d9ad66780b61e")


def test_search_answers_are_pinned(tree_pin_reports, non_tree_pin_reports):
    # the two pins above without nodes_explored: verdicts, sizes and
    # witnesses, which a change to how the search prunes must leave alone
    reports = tree_pin_reports + non_tree_pin_reports
    assert H.report_digest(reports, nodes=False) == (
        "b842a0c247fabe08c3aa80c1f2b0ca03e712173f1b0bc27f5217c1d3432841ed")


def test_budget_stopped_search_outputs_are_pinned():
    # the three searches at the default budget and stopped after 3 and after
    # 17 nodes, so stops fall in the middle of exclude chains: 120 seeded
    # random graphs (n 6-12, n/2 to 2n edges) and fixed graphs whose orbital
    # chains drop orbits of several sets, each at r <= min(4, alpha)
    rng = random.Random(22)
    graphs = []
    for _ in range(120):
        n = rng.randint(6, 12)
        graphs.append(Graph(n, H.random_graph_edges(rng, n, rng.randint(n // 2, 2 * n))))
    graphs += [generate(f"cycle:{n}") for n in range(8, 13)]
    graphs += [generate(spec) for spec in ("kpartite:2,2,2", "kpartite:3,3", "empty:7", "empty:8")]
    cases = [(g, r) for g in graphs for r in range(1, min(4, max_independent_set_size(g)) + 1)]
    assert len(cases) == 448 + 33
    budgets = (None, V.SearchBudget(3), V.SearchBudget(17))
    assert H.report_digest(fn(g, r, b) for g, r in cases for b in budgets for fn in SEARCHES) == (
        "09f894ce9081fd9caf67d1e242dc95cf8351354d41b06b9d3996174f505c3714")


# -- the Hilton-Milner-type floor of the nonstar search ------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_hilton_milner_seed_is_a_nonstar_family(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    g = Graph(n, edges)
    r = data.draw(st.integers(1, max_independent_set_size(g)))
    cands = enum_independent_rsets(g, r)
    size, sel = V._hilton_milner(cands, V._containment(cands, n))
    family = [cands[i] for i in range(len(cands)) if sel >> i & 1]
    assert len(family) == size
    if size:
        assert all(g.is_independent(m) and m.bit_count() == r for m in family)
        assert V.is_intersecting(family)
        assert V.star_center(family).center is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "_hilton_milner", lambda cands, meets: (0, 0))
        assert size <= V.max_nonstar_intersecting(g, r).max_intersecting_size


def test_hilton_milner_floor_changes_only_node_counts(monkeypatch):
    # the nonstar search from the seeded floor against the same search from
    # 0, on every nonempty atlas graph and 60 seeded random graphs (n 6-11)
    graphs = [Graph(a.number_of_nodes(), list(a.edges()))
              for a in nx.graph_atlas_g() if a.number_of_nodes()]
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(6, 11)
        graphs.append(Graph(n, H.random_graph_edges(rng, n, rng.randint(n // 2, 2 * n))))
    cases = [(g, r) for g in graphs for r in range(1, min(4, max_independent_set_size(g)) + 1)]
    seeded = [V.max_nonstar_intersecting(g, r) for g, r in cases]
    monkeypatch.setattr(V, "_hilton_milner", lambda cands, meets: (0, 0))
    plain = [V.max_nonstar_intersecting(g, r) for g, r in cases]
    for (g, r), a, b in zip(cases, seeded, plain):
        assert a.to_json_dict() | {"nodes_explored": 0} == b.to_json_dict() | {"nodes_explored": 0}
        assert a.nodes_explored <= b.nodes_explored, (g.edges(), r)
    assert sum(a.nodes_explored for a in seeded) < sum(b.nodes_explored for b in plain)


# -- the covering bound at the root of a uniform search -------------------------

def _atlas():
    return [Graph(a.number_of_nodes(), list(a.edges()))
            for a in nx.graph_atlas_g() if a.number_of_nodes()]


def test_covering_bound_bounds_every_nonstar_family():
    # the root test never puts the floor below a real nonstar family; it
    # fires only at r <= 2
    brute = 0
    for g in _atlas():
        for r in range(1, min(2, max_independent_set_size(g)) + 1):
            size = V.max_nonstar_intersecting(g, r).max_intersecting_size
            assert not V._root_covered(r, size - 1), (g.edges(), r)
            cands = enum_independent_rsets(g, r)
            if len(cands) <= 20:
                brute += 1
                size = H.brute_max_intersecting(cands, empty_common_only=True)[0]
                assert not V._root_covered(r, size - 1), (g.edges(), r)
    assert brute == 2496


def test_covering_bound_changes_only_node_counts(monkeypatch):
    # the three searches with the root covering bound against the same
    # searches with a bound that never prunes, on every nonempty atlas graph,
    # 60 seeded random graphs (n 6-12) and every free tree with 2 <= n <= 10
    rng = random.Random(24)
    graphs = _atlas()
    for _ in range(60):
        n = rng.randint(6, 12)
        graphs.append(Graph(n, H.random_graph_edges(rng, n, rng.randint(n // 2, 2 * n))))
    graphs += [t for n in range(2, 11) for t in free_trees(n)]
    cases = [(g, r) for g in graphs for r in range(1, min(3, max_independent_set_size(g)) + 1)]
    bounded = [fn(g, r) for g, r in cases for fn in SEARCHES]
    monkeypatch.setattr(V, "_root_covered", lambda r, floor: False)
    plain = [fn(g, r) for g, r in cases for fn in SEARCHES]
    for a, b in zip(bounded, plain):
        assert a.to_json_dict() | {"nodes_explored": 0} == b.to_json_dict() | {"nodes_explored": 0}
        assert a.nodes_explored <= b.nodes_explored, (a, b)
    assert sum(a.nodes_explored for a in bounded) < sum(b.nodes_explored for b in plain)


_P5 = generate("path:5")


def _peeled():
    return B.peel(generate("star:9"), 6)


# each size, vertex, vertex mask and rational argument follows one rule, with one
# message: "need an int <bound>, got <name>=<value>" or "need a rational <name> ..."
@pytest.mark.parametrize("call,message", [
    (lambda: V.is_r_ekr(_P5, True), "need an int r >= 1, got r=True"),
    (lambda: V.is_strictly_r_ekr(_P5, True), "need an int r >= 1, got r=True"),
    (lambda: V.max_nonstar_intersecting(_P5, True), "need an int r >= 1, got r=True"),
    (lambda: V.is_r_hk(_P5, True), "need an int r >= 1, got r=True"),
    (lambda: V.SearchBudget(True), "need an int max_nodes >= 1, got max_nodes=True"),
    (lambda: V.SearchBudget(2.5), "need an int max_nodes >= 1, got max_nodes=2.5"),
    (lambda: V.SearchBudget("3"), "need an int max_nodes >= 1, got max_nodes='3'"),
    (lambda: Graph(True, []), "need an int n >= 1, got n=True"),
    (lambda: count_rsets(_P5, True), "need an int r >= 0, got r=True"),
    (lambda: enum_independent_rsets(_P5, True), "need an int 0 <= r <= 5, got r=True"),
    (lambda: search_catalog("ekr", [_P5], r_max=True), "need an int r_max >= 1, got r_max=True"),
    (lambda: SpiderSpec((True, 2, 2)), "leg lengths must be >= 1"),
    (lambda: B.peel(_P5, True), "need an int threshold >= 1, got threshold=True"),
    (lambda: B.peel(_P5, 2.5), "need an int threshold >= 1, got threshold=2.5"),
    (lambda: B.check_exp_linear(0.1, True), "need an int k >= 1, got k=True"),
    (lambda: B.check_one_minus_exp(0.1, 2.0), "need an int k >= 1, got k=2.0"),
    (lambda: B.check_degree_product(3.0, 2, 100), "need an int r >= 2, got r=3.0"),
    (lambda: B.check_degree_product(2, 2.0, 100), "need an int d >= 2, got d=2.0"),
    (lambda: B.check_degree_product(2, 2, 100.0), "need an int n >= 1, got n=100.0"),
    (lambda: B.binoms_ineq_check(True, 1), "need an int n >= 0, got n=True"),
    (lambda: B.binoms2_ineq_check(100, 5, True), "need an int s, got s=True"),
    (lambda: B.hypothesis("T5", B.BoundQuery(n=100, r=True)), "need an int r >= 1, got r=True"),
    (lambda: B.hypothesis("T3", B.BoundQuery(n=100, r=2, d=2.5)), "need an int d >= 1, got d=2.5"),
    (lambda: B.rmax("T6", B.BoundQuery(n=100, s=True)), "need an int s, got s=True"),
    (lambda: B.rmax("T8", B.BoundQuery(n=1000.5)), "need an int n, got n=1000.5"),
    (lambda: B.big_star_lower(72, True, 3, 1), "need an int r >= 1, got r=True"),
    (lambda: B.big_star_lower(72.0, 2, 3, 1), "need an int n >= 1, got n=72.0"),
    (lambda: B.claim_star_lower(10, True, 3), "need an int d, got d=True"),
    (lambda: B.claim_star_lower(10, 3, 3.0), "need an int r >= 1, got r=3.0"),
    (lambda: B.peel_bound_check(_peeled(), 1, True), "need an int r >= 1, got r=True"),
    (lambda: B.peel_bound_check(_peeled(), 1, 2.0), "need an int r >= 1, got r=2.0"),
    (lambda: B.peel_bound_check(_peeled(), True, 2), "need a rational c .*, got c=True"),
    (lambda: B.peel_bound_check(_peeled(), "1/0", 2), "need a rational c .*, got c='1/0'"),
    (lambda: B.spider_star_lower(7, True, 2), "need an int k, got k=True"),
    (lambda: B.spider_star_lower(7, 3, 2.0), "need an int r, got r=2.0"),
    (lambda: B.split_star_lower(True, 2, 2), "need an int n, got n=True"),
    (lambda: B.split_star_lower(6, 2.0, 2), "need an int s, got s=2.0"),
    (lambda: B.ekr_bound(True, 2), "need an int n, got n=True"),
    (lambda: B.ekr_bound(9, 2.0), "need an int r, got r=2.0"),
    (lambda: B.hm_bound(9, True), "need an int r, got r=True"),
    (lambda: B.hm_bound(9.0, 4), "need an int n, got n=9.0"),
    (lambda: B.frankl_bound(True, 2), "need an int n, got n=True"),
    (lambda: B.frankl_bound(9, 2.0), "need an int r, got r=2.0"),
    (lambda: F.count_path_rsets(5, True), "need an int r >= 0, got r=True"),
    (lambda: F.count_path_rsets(5, 2.0), "need an int r >= 0, got r=2.0"),
    (lambda: F.indep_size_counts(_P5, max_size=True), "need an int max_size >= 0, got max_size=True"),
    (lambda: F.indep_size_counts(_P5, max_size=2.0), "need an int max_size >= 0, got max_size=2.0"),
    (lambda: F.star_size(_P5, True, 2), "need an int 0 <= v <= 4, got v=True"),
    (lambda: F.star_size(_P5, 1.0, 2), "need an int 0 <= v <= 4, got v=1.0"),
    (lambda: F.star_vector_tree_dp(_P5, True), "need an int 0 <= v <= 4, got v=True"),
    (lambda: F.star_vector_tree_dp(_P5, 1.0), "need an int 0 <= v <= 4, got v=1.0"),
    (lambda: count_rsets(_P5, 2, anchor=True), "need an int 0 <= anchor <= 4, got anchor=True"),
    (lambda: count_rsets(_P5, 2, anchor=1.0), "need an int 0 <= anchor <= 4, got anchor=1.0"),
    (lambda: count_rsets(_P5, 2, forbidden=True), "need an int 0 <= forbidden <= 31, got forbidden=True"),
    (lambda: count_rsets(_P5, 2, forbidden=2.0), "need an int 0 <= forbidden <= 31, got forbidden=2.0"),
    (lambda: Graph(3, [(True, 2)]), r"edge \(True,2\) out of range for n=3"),
    (lambda: Graph(3, [(0.0, 2)]), r"edge \(0.0,2\) out of range for n=3"),
    (lambda: free_trees(True), "need an int n >= 1, got n=True"),
    (lambda: free_trees(3.0), "need an int n >= 1, got n=3.0"),
    (lambda: T.search_trees("hk", True), "need an int n_max >= 2, got n_max=True"),
    (lambda: T.search_trees("hk", 3.0), "need an int n_max >= 2, got n_max=3.0"),
    (lambda: T.search_trees("hk", 4, n_min=True), "need an int n_min >= 1, got n_min=True"),
    (lambda: T.search_trees("hk", 4, n_min=2.0), "need an int n_min >= 1, got n_min=2.0"),
    (lambda: automorphism_generators(_P5, True), "need an int 0 <= setwise <= 31, got setwise=True"),
    (lambda: automorphism_generators(_P5, 1.0), "need an int 0 <= setwise <= 31, got setwise=1.0"),
], ids=["ekr", "strict", "nonstar", "hk", "budget-bool", "budget-float", "budget-str",
        "graph-n", "count-r", "enum-r", "catalog-r-max", "spider-legs",
        "peel-bool", "peel-float", "exp-linear-k", "one-minus-exp-k", "degree-product-r",
        "degree-product-d", "degree-product-n", "binoms-n", "binoms2-s", "hypothesis-r",
        "hypothesis-d", "rmax-s", "rmax-n",
        "big-star-bool", "big-star-float", "claim-star-bool", "claim-star-float",
        "peel-bound-bool", "peel-bound-float", "peel-bound-c-bool", "peel-bound-c-zero-den",
        "spider-star-bool", "spider-star-float", "split-star-bool", "split-star-float",
        "ekr-bound-bool", "ekr-bound-float", "hm-bound-bool", "hm-bound-float",
        "frankl-bound-bool", "frankl-bound-float", "path-rsets-bool", "path-rsets-float",
        "max-size-bool", "max-size-float", "star-size-v-bool", "star-size-v-float",
        "star-vector-v-bool", "star-vector-v-float", "anchor-bool", "anchor-float",
        "forbidden-bool", "forbidden-float", "graph-edge-bool", "graph-edge-float",
        "free-trees-bool", "free-trees-float", "n-max-bool", "n-max-float",
        "n-min-bool", "n-min-float", "setwise-bool", "setwise-float"])
def test_booleans_and_non_integers_are_not_sizes(call, message):
    with pytest.raises(GraphError, match=message):
        call()
