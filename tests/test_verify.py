import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrkit.verify as V
from ekrkit.families import FamilyQuery, enum_independent_rsets, star_size_tree_dp
from ekrkit.graphs import (Graph, GraphError, SpiderSpec, generate,
                           max_independent_set_size)
from ekrkit.treegen import iter_partitions

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
        return sum(1 for _ in enum_independent_rsets(FamilyQuery(g, r)))

    return [(g, r) for g, r in cases if 1 <= n_cands(g, r) <= 20]


@pytest.mark.parametrize("g,r", _engine_cases())
def test_max_family_matches_brute_force(g, r):
    cands = list(enum_independent_rsets(FamilyQuery(g, r)))
    rep = V.max_intersecting_family(g, r)
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
    rep = V.max_intersecting_family(g, r)
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


def test_budget_exhaustion_and_env_default(monkeypatch):
    rep = V.is_r_ekr(generate("empty:9"), 4, budget=V.SearchBudget(1))
    assert rep.verdict == V.BUDGET_EXCEEDED
    # the best star stands in as the provisional answer
    assert rep.max_intersecting_size >= rep.max_star_size
    assert V.is_intersecting(rep.witness)
    monkeypatch.setenv(V.BUDGET_ENV, "123")
    assert V.default_budget().max_nodes == 123
    monkeypatch.setenv(V.BUDGET_ENV, "zero")
    with pytest.raises(ValueError):
        V.default_budget()
    monkeypatch.delenv(V.BUDGET_ENV)
    assert V.default_budget().max_nodes == V.DEFAULT_MAX_NODES
    with pytest.raises(ValueError):
        V.SearchBudget(0)


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
        for legs in iter_partitions(n - 1, min_parts=3):
            spec = SpiderSpec(legs)
            g = spec.realize()
            leaves = [v for v in range(n) if g.degree(v) <= 1]
            for r in range(1, max_independent_set_size(g) + 1):
                sizes = tuple(star_size_tree_dp(g, v, r).count for v in range(n))
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


# -- root orbital branching -------------------------------------------------

SEARCHES = (V.is_r_ekr, V.is_strictly_r_ekr, V.max_nonstar_intersecting)


def _plain(monkeypatch):
    """Make every search branch without symmetry."""
    monkeypatch.setattr(V, "automorphism_generators", lambda g: [])


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


@pytest.mark.parametrize("n", [7, 8, 9])
def test_orbital_search_explores_fewer_nodes_on_edgeless_graphs(n, monkeypatch):
    g = generate(f"empty:{n}")
    orbital = [fn(g, 3) for fn in SEARCHES]
    _plain(monkeypatch)
    plain = [fn(g, 3) for fn in SEARCHES]
    for a, b in zip(orbital, plain):
        assert a.to_json_dict() | {"nodes_explored": 0} == b.to_json_dict() | {"nodes_explored": 0}
        assert a.nodes_explored < b.nodes_explored
