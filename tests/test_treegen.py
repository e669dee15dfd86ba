import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest

import ekrkit.treegen as T
from ekrkit.graphs import Graph, GraphError, generate
from ekrkit.verify import SearchBudget

import helpers as H


# -- Pruefer decoding ---------------------------------------------------------

def test_prufer_decode_frozen():
    assert T.prufer_decode((), 1) == []
    assert T.prufer_decode((), 2) == [(0, 1)]
    assert sorted(tuple(sorted(e)) for e in T.prufer_decode((3, 3, 3), 5)) == [
        (0, 3), (1, 3), (2, 3), (3, 4)]
    assert sorted(tuple(sorted(e)) for e in T.prufer_decode((0, 1, 2), 5)) == [
        (0, 1), (0, 3), (1, 2), (2, 4)]


def test_prufer_decode_validation():
    with pytest.raises(GraphError):
        T.prufer_decode((), 0)
    with pytest.raises(GraphError):
        T.prufer_decode((1,), 2)
    with pytest.raises(GraphError):
        T.prufer_decode((5,), 3)


def test_prufer_decode_matches_textbook_and_networkx():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 12)
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
        got = {tuple(sorted(e)) for e in T.prufer_decode(seq, n)}
        slow = {tuple(sorted(e)) for e in H.simple_prufer_decode(seq, n)}
        assert got == slow
        via_nx = {tuple(sorted(e)) for e in nx.from_prufer_sequence(list(seq)).edges()}
        assert got == via_nx
        assert H.is_tree(n, got)


def test_iter_labeled_trees_counts():
    for n, want in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)]:
        trees = list(T.iter_labeled_trees(n))
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
    for n in range(1, 12):
        assert len(T.free_trees(n)) == T.FREE_TREE_COUNTS[n - 1], n


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
        certs = {T.tree_certificate(n, e) for e in T.iter_labeled_trees(n)}
        assert len(certs) == len(T.free_trees(n))
        assert certs == {T.tree_certificate(n, g.edges()) for g in T.free_trees(n)}



# -- integer class keys ------------------------------------------------------------

def test_class_key_partitions_labeled_trees_like_certificates():
    for n in range(1, 9):
        shapes = {}
        cert_of_key = {}
        key_of_cert = {}
        for edges in T.iter_labeled_trees(n):
            key = T._class_key(n, edges, shapes)
            cert = T.tree_certificate(n, edges)
            assert cert_of_key.setdefault(key, cert) == cert, (n, edges)
            assert key_of_cert.setdefault(cert, key) == key, (n, edges)
        assert len(cert_of_key) == T.FREE_TREE_COUNTS[n - 1]


def test_class_key_invariant_under_relabeling_and_separates_free_trees():
    rng = random.Random(2718)
    for n in range(1, 12):
        shapes = {}
        keys = set()
        for g in T.free_trees(n):
            edges = g.edges()
            key = T._class_key(n, edges, shapes)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = [(perm[u], perm[v]) for u, v in edges]
                rng.shuffle(relabeled)
                assert T._class_key(n, relabeled, shapes) == key, (n, edges, perm)
            keys.add(key)
        assert len(keys) == T.FREE_TREE_COUNTS[n - 1], n


def test_free_trees_labels_edges_and_order_pinned():
    # digest of the free trees and certificates as first released, n = 1..10
    h = hashlib.sha256()
    for n in range(1, 11):
        for g in T.free_trees(n):
            h.update(f"{g.label} {g.edges()} {T.tree_certificate(n, g.edges())}\n".encode())
    assert h.hexdigest() == "8d86fe8e35331850f25f19448ffefc6f6db457abaff0032d82382a8170c456d1"

# -- integer partitions / compositions ---------------------------------------------

def test_iter_partitions():
    parts = list(T.iter_partitions(6))
    assert len(parts) == 11
    assert all(sum(p) == 6 and list(p) == sorted(p, reverse=True) for p in parts)
    assert len(set(parts)) == 11
    assert list(T.iter_partitions(6, min_parts=3)) == [
        p for p in parts if len(p) >= 3]
    assert all(max(p) <= 2 for p in T.iter_partitions(6, max_part=2))
    assert list(T.iter_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_iter_compositions():
    for m in range(1, 8):
        comps = list(T.iter_compositions(m))
        assert len(comps) == 2 ** (m - 1)
        assert all(sum(c) == m for c in comps)
        assert len(set(comps)) == len(comps)
    assert list(T.iter_compositions(3, min_parts=2)) == [
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


def test_search_trees_validation():
    with pytest.raises(GraphError):
        T.search_trees(T.PROP_HK, 2, n_min=3)
    with pytest.raises(GraphError):
        T.search_trees("nope", 4)


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


def test_sweep_summary_json_schema():
    summary = T.search_catalog(T.PROP_EKR, [generate("kpartite:2,2")], r_max=2)
    d = summary.to_json_dict()
    assert set(d) == {"property", "n_max", "labeled_seen", "unique_graphs",
                      "checks", "findings", "budget_exceeded"}
    assert all(isinstance(f, dict) for f in d["findings"])
