import hashlib
import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

import ekrkit.treegen as T
import ekrkit.verify as V
from ekrkit.graphs import (Graph, GraphError, emit_graph6, generate, max_independent_set_size,
                           parse_graph6)
from ekrkit.verify import SearchBudget

import helpers as H


# -- the labeled-tree reference (test helpers) ----------------------------------

def test_prufer_decode_matches_textbook_and_networkx():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 12)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        slow = {tuple(sorted(e)) for e in H.simple_prufer_decode(seq, n)}
        via_nx = {tuple(sorted(e)) for e in nx.from_prufer_sequence(list(seq)).edges()}
        assert slow == via_nx
        assert H.is_tree(n, slow)


def test_iter_labeled_trees_counts():
    # Cayley's formula: n^(n-2) labeled trees on n vertices
    for n, want in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)]:
        trees = list(H.iter_labeled_trees(n))
        assert len(trees) == want
        assert all(H.is_tree(n, e) for e in trees)


# -- canonical certificates -----------------------------------------------------

def test_certificate_invariant_under_relabeling():
    rng = random.Random(5150)
    for _ in range(40):
        n = rng.randint(2, 12)
        edges = H.random_tree_edges(rng, n)
        cert = T.tree_certificate(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        assert T.tree_certificate(n, relabeled) == cert


def test_certificate_rejects_non_trees():
    # a cycle has no leaf to peel; the check must refuse it, not loop
    with pytest.raises(GraphError, match="not form a tree"):
        T.tree_certificate(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match="not form a tree"):
        T.tree_certificate(4, [(0, 1), (1, 2), (2, 0)])  # vertex 3 cut off
    with pytest.raises(GraphError, match="not form a tree"):
        T.tree_certificate(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(GraphError, match="not form a tree"):
        T.tree_certificate(3, [(0, 1), (0, 1)])  # repeated edge
    with pytest.raises(GraphError, match="loop"):
        T.tree_certificate(2, [(0, 0)])
    with pytest.raises(GraphError, match="range"):
        T.tree_certificate(3, [(0, 1), (1, 3)])
    with pytest.raises(GraphError):
        T.tree_certificate(0, [])


def test_certificate_separates_shapes():
    path = generate("path:5")
    star = generate("star:4")
    assert T.tree_certificate(5, path.edges()) != T.tree_certificate(5, star.edges())
    assert T.tree_certificate(1, []) == "()"


def test_free_tree_counts():
    for n in range(1, 14):
        assert len(T.free_trees(n)) == H.FREE_TREE_COUNTS[n - 1], n


def test_free_trees_are_trees_and_nonisomorphic():
    for n in range(2, 8):
        reps = T.free_trees(n)
        assert all(g.is_tree() for g in reps)
        assert all(g.label == f"free-tree-{n}-{i}" for i, g in enumerate(reps))
        nxg = [nx.Graph(g.edges()) for g in reps]
        for a, b in combinations(range(len(reps)), 2):
            assert not nx.is_isomorphic(nxg[a], nxg[b]), (n, a, b)


def test_free_trees_match_labeled_sweep_dedup():
    for n in range(2, 8):
        certs = {T.tree_certificate(n, e) for e in H.iter_labeled_trees(n)}
        assert len(certs) == len(T.free_trees(n))
        assert certs == {T.tree_certificate(n, g.edges()) for g in T.free_trees(n)}


def test_certificate_invariant_under_relabeling_and_separates_free_trees():
    rng = random.Random(2718)
    for n in range(1, 12):
        certs = set()
        for g in T.free_trees(n):
            edges = g.edges()
            cert = T._certificate(n, edges)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = [(perm[u], perm[v]) for u, v in edges]
                rng.shuffle(relabeled)
                assert T._certificate(n, relabeled) == cert, (n, edges, perm)
            certs.add(cert)
        assert len(certs) == H.FREE_TREE_COUNTS[n - 1], n


def test_free_trees_labels_edges_and_order_pinned():
    # digest of the free trees and certificates as first released, n = 1..10
    h = hashlib.sha256()
    for n in range(1, 11):
        for g in T.free_trees(n):
            h.update(f"{g.label} {g.edges()} {T.tree_certificate(n, g.edges())}\n".encode())
    assert h.hexdigest() == "8d86fe8e35331850f25f19448ffefc6f6db457abaff0032d82382a8170c456d1"

# -- integer partitions / compositions (test helpers) ------------------------------

def test_iter_partitions():
    parts = list(H.iter_partitions(6))
    assert len(parts) == 11
    assert all(sum(p) == 6 and list(p) == sorted(p, reverse=True) for p in parts)
    assert len(set(parts)) == 11
    assert list(H.iter_partitions(6, min_parts=3)) == [
        p for p in parts if len(p) >= 3]
    assert all(max(p) <= 2 for p in H.iter_partitions(6, max_part=2))
    assert list(H.iter_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_iter_compositions():
    for m in range(1, 8):
        comps = list(H.iter_compositions(m))
        assert len(comps) == 2 ** (m - 1)
        assert all(sum(c) == m for c in comps)
        assert len(set(comps)) == len(comps)
    assert list(H.iter_compositions(3, min_parts=2)) == [
        (1, 1, 1), (1, 2), (2, 1)]


# -- sweeps ----------------------------------------------------------------------

def test_search_trees_hk_small_clean():
    summary = T.search_trees(T.PROP_HK, 5)
    assert summary.findings == ()
    assert summary.labeled_seen == 1 + 3 + 16 + 125
    assert summary.unique_graphs == 1 + 1 + 2 + 3
    assert summary.checks == 1 + 2 + (2 + 3) + (3 + 4 + 3)
    assert summary.budget_exceeded == 0
    assert summary.property == "hk" and summary.n_max == 5


def test_search_trees_ekr_finds_star_counterexample():
    hits = []
    summary = T.search_trees(T.PROP_EKR, 4, on_finding=hits.append)
    assert len(summary.findings) == 1
    f = summary.findings[0]
    assert hits == [f]
    assert (f.n, f.r, f.verdict) == (4, 2, "not_ekr")
    detail = dict(f.detail)
    assert detail["max_star_size"] == 2
    assert detail["max_intersecting_size"] == 3
    assert detail["witness"] == [[1, 2], [1, 3], [2, 3]]
    d = f.to_json_dict()
    assert d["certificate"] == T.tree_certificate(4, generate("star:3").edges())
    assert d["detail"]["max_intersecting_size"] == 3


@pytest.fixture(scope="module")
def reference_trees():
    """First labeled tree of each class for n = 2..8, keying every tree."""
    reps = []
    for n in range(2, 9):
        seen = set()
        for edges in H.iter_labeled_trees(n):
            cert = T._certificate(n, edges)
            if cert not in seen:
                seen.add(cert)
                reps.append(Graph(n, edges, label=f"tree-{n}-{len(seen) - 1}"))
    return reps


def test_search_trees_checks_the_reference_representatives(monkeypatch):
    checked = []
    prepare = T._CHECKS[T.PROP_HK]

    def spy(g, budget):
        checked.append((g.label, g.edges()))
        return prepare(g, budget)

    monkeypatch.setitem(T._CHECKS, T.PROP_HK, spy)
    T.search_trees(T.PROP_HK, 8, r_max=1)
    assert checked == [(g.label, g.edges()) for n in range(2, 9) for g in T.free_trees(n)]


def _finding_classes(summary):
    """Findings as a multiset of what does not depend on the representative's labels."""
    rows = Counter()
    for f in summary.findings:
        d = dict(f.detail)
        rows[f.n, f.r, f.certificate, f.verdict, d["max_star_size"],
             d["max_intersecting_size"], len(d["witness"])] += 1
    return rows


def test_search_trees_ekr_matches_reference_catalog(reference_trees):
    summary = T.search_trees(T.PROP_EKR, 8, r_max=3)
    reference = T.search_catalog(T.PROP_EKR, reference_trees, r_max=3)
    assert summary.labeled_seen == sum(n ** (n - 2) for n in range(2, 9)) == 280392
    assert (summary.unique_graphs, summary.checks, summary.budget_exceeded) == (
        reference.unique_graphs, reference.checks, reference.budget_exceeded)
    assert _finding_classes(summary) == _finding_classes(reference)
    assert sum(_finding_classes(summary).values()) > 0


def test_search_trees_hk_n13_anchor():
    # the one hk finding on 13 vertices, past any labeled sweep's reach
    # (13^11 labeled trees)
    summary = T.search_trees(T.PROP_HK, 13, n_min=13)
    assert (summary.labeled_seen, summary.unique_graphs, summary.checks) == (
        13 ** 11, 1301, 10592)
    assert [(f.n, f.r, f.graph6, f.verdict) for f in summary.findings] == [
        (13, 6, "LqGPA?@O??`??_", "leaf_not_max")]


def test_search_trees_validation():
    with pytest.raises(GraphError):
        T.search_trees(T.PROP_HK, 2, n_min=3)
    with pytest.raises(GraphError):
        T.search_trees(T.PROP_HK, 3, n_min=0)
    for r_max in (0, -1):
        with pytest.raises(GraphError, match="r_max"):
            T.search_trees(T.PROP_HK, 3, r_max=r_max)
        with pytest.raises(GraphError, match="r_max"):
            T.search_catalog(T.PROP_EKR, [generate("path:3")], r_max=r_max)
    with pytest.raises(GraphError):
        T.search_trees("nope", 4)
    with pytest.raises(GraphError):
        T.search_catalog("nope", [])


@pytest.mark.parametrize("prop,finding_ns", [(T.PROP_HK, set()),
                                              (T.PROP_EKR, {4, 5, 6, 7, 8})])
def test_labeled_and_catalog_sweeps_agree(prop, finding_ns):
    # one class representative per free tree: both entry points must check the
    # same (tree, r) pairs and report the same findings
    ns = set()
    for n in range(2, 9):
        labeled = T.search_trees(prop, n, n_min=n, r_max=3)
        catalog = T.search_catalog(prop, T.free_trees(n), r_max=3)
        assert labeled.unique_graphs == catalog.unique_graphs == H.FREE_TREE_COUNTS[n - 1]
        assert (labeled.checks, labeled.budget_exceeded) == (
            catalog.checks, catalog.budget_exceeded), n
        assert ({(f.r, f.certificate, f.verdict) for f in labeled.findings}
                == {(f.r, f.certificate, f.verdict) for f in catalog.findings}), n
        if catalog.findings:
            ns.add(n)
    assert ns == finding_ns


def test_search_catalog_flags_balanced_bipartite():
    summary = T.search_catalog(T.PROP_EKR, [generate("kpartite:3,3")], r_max=2)
    assert summary.unique_graphs == 1 and summary.checks == 2
    assert len(summary.findings) == 1
    f = summary.findings[0]
    assert (f.n, f.r, f.verdict) == (6, 2, "not_ekr")
    assert f.graph6 == f.certificate  # non-trees fall back to graph6 ids


def test_search_catalog_budget_exhaustion_is_counted():
    summary = T.search_catalog(T.PROP_EKR, [generate("empty:9")], r_max=4,
                               budget=SearchBudget(1))
    assert summary.budget_exceeded >= 1
    assert any(f.verdict == "budget_exceeded" for f in summary.findings)
    blown = next(f for f in summary.findings if f.verdict == "budget_exceeded")
    assert dict(blown.detail)["nodes_explored"] >= 1


def _ekr_catalog_cases():
    trees = [t for n in range(2, 10) for t in T.free_trees(n)]
    atlas6 = [Graph(6, list(a.edges())) for a in nx.graph_atlas_g() if a.number_of_nodes() == 6]
    return [(trees, 3, None), (atlas6, None, None), (trees + atlas6, 3, SearchBudget(5))]


@pytest.mark.parametrize("case", range(3))
def test_ekr_catalog_reports_equal_is_r_ekr(case, monkeypatch):
    # one Aut(G) per graph for every r: each report the catalog builds, budget
    # stops and the refinement search's generators included, must be the one
    # is_r_ekr builds alone, nodes_explored included
    graphs, r_max, budget = _ekr_catalog_cases()[case]
    report, built = V._report, []

    def spy(g, r, *args):
        rep = report(g, r, *args)
        built.append((g, r, rep))
        return rep

    monkeypatch.setattr(V, "_report", spy)
    summary = T.search_catalog(T.PROP_EKR, graphs, r_max, budget)
    monkeypatch.undo()
    want = [(g, r) for g in graphs
            for r in range(1, min(r_max or g.n, max_independent_set_size(g)) + 1)]
    assert [(g, r) for g, r, _ in built] == want and summary.checks == len(want)
    for g, r, rep in built:
        assert rep == V.is_r_ekr(g, r, budget), (g.edges(), r)
    assert (summary.budget_exceeded > 0) == (budget is not None)


def test_hk_catalog_findings_equal_is_r_hk():
    # one rerooting DP per tree for every r: each finding must carry what
    # is_r_hk reports alone, and no (tree, r) where is_r_hk holds is a finding;
    # the one tree with n = 13 that has a finding makes the comparison nonvacuous
    trees = [t for n in range(2, 13) for t in T.free_trees(n)] + [parse_graph6("LqGPA?@O??`??_")]
    summary = T.search_catalog(T.PROP_HK, trees)
    want = []
    for t in trees:
        for r in range(1, max_independent_set_size(t) + 1):
            rep = V.is_r_hk(t, r)
            if not rep.holds:
                want.append((emit_graph6(t), r, "leaf_not_max", rep.best_vertex,
                             list(rep.star_sizes)))
    got = [(f.graph6, f.r, f.verdict, dict(f.detail)["best_vertex"],
            dict(f.detail)["star_sizes"]) for f in summary.findings]
    assert got == want and len(want) == 1
    assert summary.checks == sum(max_independent_set_size(t) for t in trees)
    # a cycle, and a triangle plus a vertex (n - 1 edges but no tree), fail as in is_r_hk
    for g in (generate("cycle:5"), Graph(4, [(0, 1), (1, 2), (0, 2)])):
        with pytest.raises(GraphError, match="leaf-maximum verdicts need a tree"):
            V.is_r_hk(g, 1)
        with pytest.raises(GraphError, match="leaf-maximum verdicts need a tree"):
            T.search_catalog(T.PROP_HK, [g])


def test_sweep_summary_json_schema():
    summary = T.search_catalog(T.PROP_EKR, [generate("kpartite:2,2")], r_max=2)
    d = summary.to_json_dict()
    assert set(d) == {"property", "n_max", "labeled_seen", "unique_graphs",
                      "checks", "findings", "budget_exceeded"}
    assert all(isinstance(f, dict) for f in d["findings"])
