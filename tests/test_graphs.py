import gc
import random
import tracemalloc
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ekrkit.graphs as graphs
from ekrkit.graphs import (
    Graph,
    Graph6Error,
    GraphError,
    GeneratorError,
    SpiderSpec,
    automorphism_generators,
    bit_list,
    emit_graph6,
    generate,
    iter_bits,
    mask_of,
    max_independent_set_size,
    min_maximal_independent_set_size,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
    spider_order,
)
from ekrkit.treegen import free_trees
from ekrkit.verify import is_r_ekr, max_nonstar_intersecting

import helpers as H


# -- Graph basics --------------------------------------------------------

def test_graph_construction_and_queries():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], label="p4")
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.degrees() == [1, 2, 2, 1]
    assert g.max_degree() == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.is_tree() and g.is_forest() and g.is_connected()


def test_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph(0)
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(200)


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_ignores_label():
    a = Graph(3, [(0, 1)], label="x")
    b = Graph(3, [(0, 1)], label="y")
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])


def test_parallel_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_is_independent():
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.is_independent(H.mask([0, 2]))
    assert g.is_independent(H.mask([1, 3]))
    assert not g.is_independent(H.mask([0, 1]))
    assert g.is_independent(0)


def test_components_and_induced():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = g.components()
    assert comps == [H.mask([0, 1]), H.mask([2, 3, 4]), H.mask([5])]
    sub, old = g.induced(H.mask([2, 3, 4]))
    assert old == [2, 3, 4]
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        g.induced(0)


def test_bit_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert bit_list(0b100101) == [0, 2, 5]
    assert list(iter_bits(0b1010)) == [1, 3]
    assert bit_list(0) == []


# -- graph6 codec --------------------------------------------------------

def test_graph6_known_values():
    # frozen reference encodings (cross-checked against networkx)
    assert emit_graph6(generate("cycle:5")) == "Dhc"
    assert emit_graph6(generate("path:4")) == "Ch"
    assert emit_graph6(generate("path:5")) == "DhC"
    assert parse_graph6("Dhc") == generate("cycle:5")


def test_graph6_round_trip_against_networkx():
    rng = random.Random(20260814)
    for trial in range(60):
        n = rng.randint(1, 30)
        edges = H.random_graph_edges(rng, n, rng.randint(0, n * 2))
        g = Graph(n, edges)
        enc = emit_graph6(g)
        nxg = nx.from_graph6_bytes(enc.encode("ascii"))
        assert nxg.number_of_nodes() == n
        assert {frozenset(e) for e in nxg.edges()} == {frozenset(e) for e in g.edges()}
        # and the reverse direction, networkx encoding -> our parser
        back = parse_graph6(nx.to_graph6_bytes(nxg, header=False).decode().strip())
        assert back == g


def test_graph6_large_vertex_count():
    g = Graph(100, [(0, 99), (50, 51)])
    enc = emit_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_graph6_header_accepted():
    enc = ">>graph6<<" + emit_graph6(generate("path:3"))
    assert parse_graph6(enc) == generate("path:3")


@pytest.mark.parametrize(
    "text,kind",
    [
        ("", "malformed-header"),
        ("D" + chr(20), "byte-out-of-range"),
        ("DqKqq", "trailing-garbage"),
        ("D", "malformed-header"),
        ("~~A??", "too-large"),
        ("~", "malformed-header"),
        ("~?", "malformed-header"),
        ("~??", "malformed-header"),
        ("?", "malformed-header"),  # n = 0
        ("~?A@", "too-large"),  # n = 129
    ],
)
def test_graph6_error_kinds(text, kind):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert exc.value.kind == kind


def test_graph6_nonzero_padding_rejected():
    good = emit_graph6(generate("path:5"))  # "DhC": 10 data bits + 2 padding
    bad = good[:-1] + chr(((ord(good[-1]) - 63) | 1) + 63)
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(bad)
    assert exc.value.kind == "trailing-garbage"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.binary()))
def test_parsers_raise_only_graph_errors(data):
    # parse_edge_list reads text only; graph6 also takes bytes
    parsers = (parse_graph6, parse_edge_list) if isinstance(data, str) else (parse_graph6,)
    for parse in parsers:
        try:
            g = parse(data)
        except GraphError:
            continue
        assert isinstance(g, Graph)


def test_read_graph6_lines():
    text = "\n".join([emit_graph6(generate("path:3")), "", emit_graph6(generate("cycle:4"))])
    gs = read_graph6_lines(text)
    assert [g.n for g in gs] == [3, 4]


# -- edge-list files -----------------------------------------------------

def test_edge_list_round_trip():
    g = generate("spider:2,3,1")
    text = "".join(f"{u} {v}\n" for u, v in g.edges())
    back = parse_edge_list(text)
    assert back == g


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# a comment\n0 1\n\n1 2\n")
    assert g.n == 3 and g.edge_count() == 2
    with pytest.raises(GraphError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphError):
        parse_edge_list("0 x\n")
    with pytest.raises(GraphError):
        parse_edge_list("-1 2\n")
    with pytest.raises(GraphError):
        parse_edge_list("# nothing\n")


# -- generators ----------------------------------------------------------

def test_generate_path_cycle_star_empty():
    assert generate("empty:5").edge_count() == 0
    p = generate("path:6")
    assert p.is_tree() and p.max_degree() == 2 and p.edge_count() == 5
    c = generate("cycle:6")
    assert c.edge_count() == 6 and all(d == 2 for d in c.degrees())
    s = generate("star:7")
    assert s.n == 8 and s.degree(0) == 7 and s.edge_count() == 7


def test_generate_kpartite():
    g = generate("kpartite:3,3")
    assert g.n == 6 and g.edge_count() == 9
    assert max_independent_set_size(g) == 3
    g = generate("kpartite:2,2,2")
    assert g.edge_count() == 12 and all(d == 4 for d in g.degrees())


def test_generate_tristar():
    g = generate("tristar:1")
    assert g.n == 10
    assert g.is_tree()
    assert sorted(g.degrees()) == [1] * 6 + [3] * 4
    g2 = generate("tristar:2")
    assert g2.n == 1 + 3 * 7
    assert g2.is_tree()
    # split vertices: the centre plus every internal tree vertex
    splits = sum(1 for d in g2.degrees() if d >= 3)
    assert splits == 3 * (2 ** 2 - 1) + 1


def test_generate_errors():
    for bad in ("cycle:2", "star:0", "kpartite:4", "tristar:-1", "nosuch:3", "path"):
        with pytest.raises(GraphError):
            generate(bad)
    with pytest.raises(GraphError, match="bad integer parameters"):
        generate("path:x")
    with pytest.raises(GraphError, match="spider exceeds the vertex limit"):
        generate("spider:50,50,50")


@pytest.mark.parametrize("spec", ["kpartite:1000,1000", "cycle:1000000", "tristar:20000"])
def test_oversized_generator_specs_fail_before_building(spec):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="exceeds the 128-vertex limit"):
            generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# -- spiders ---------------------------------------------------------------

def test_spider_order_rule():
    # odd lengths ascending, then even lengths descending
    assert spider_order([3, 2, 4, 1]) == [3, 0, 2, 1]
    assert spider_order([2, 2, 2]) == [0, 1, 2]  # stable on ties
    assert spider_order([1, 1, 5, 3]) == [0, 1, 3, 2]
    assert spider_order([6, 4, 2]) == [0, 1, 2]
    assert spider_order([2, 4, 6]) == [2, 1, 0]
    with pytest.raises(GraphError):
        spider_order([0, 1, 2])


def test_spider_spec_layout():
    spec = SpiderSpec((2, 3, 1))
    assert spec.k == 3 and spec.n == 7
    assert spec.order == (2, 1, 0)  # odd legs 1, 3 ascending, then even 2
    assert spec.leg_path(0) == [1, 2]
    assert spec.leg_path(1) == [3, 4, 5]
    assert spec.inner_vertex(1) == 3 and spec.leaf_vertex(1) == 5
    g = spec.realize()
    assert g.is_tree() and g.degree(0) == 3
    assert sorted(g.degrees()) == [1, 1, 1, 2, 2, 2, 3]


def test_spider_spec_validation():
    with pytest.raises(GeneratorError):
        SpiderSpec((2, 2))
    with pytest.raises(GeneratorError):
        SpiderSpec((0, 1, 2))


def test_spider_realize_matches_generate():
    assert generate("spider:2,2,2") == SpiderSpec((2, 2, 2)).realize()


# -- exact parameters ------------------------------------------------------

def brute_alpha(n, edges):
    best = 0
    for r in range(n, 0, -1):
        if H.brute_independent_rsets(n, edges, r):
            return r
    return best


def brute_mu(n, edges):
    best = n
    for r in range(1, n + 1):
        for m in H.brute_independent_rsets(n, edges, r):
            if H.is_maximal_independent(n, edges, m):
                return r
    return best


def test_alpha_mu_on_random_graphs():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 11)
        edges = H.random_graph_edges(rng, n, rng.randint(0, 2 * n))
        g = Graph(n, edges)
        assert max_independent_set_size(g) == brute_alpha(n, edges)
        assert min_maximal_independent_set_size(g) == brute_mu(n, edges)


def test_alpha_mu_leave_no_garbage():
    # the searches keep their state on local stacks: no reference cycle is left
    # for the cyclic collector, which is switched off so that it cannot hide one
    cases = [generate(spec) for spec in ("spider:2,2,2", "cycle:7", "kpartite:3,4")]
    gc.collect()
    gc.disable()
    try:
        for g in cases:
            max_independent_set_size(g)
            min_maximal_independent_set_size(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_alpha_mu_known_values():
    for spec, alpha, mu in (("spider:2,2,2", 4, 3), ("cycle:7", 3, 3),
                            ("empty:6", 6, 6), ("kpartite:3,4", 4, 3)):
        g = generate(spec)
        assert max_independent_set_size(g) == alpha
        assert min_maximal_independent_set_size(g) == mu


def test_is_maximal_independent():
    edges = generate("path:5").edges()
    assert H.is_maximal_independent(5, edges, H.mask([0, 2, 4]))
    assert H.is_maximal_independent(5, edges, H.mask([0, 3]))  # dominates 1, 2 and 4
    assert not H.is_maximal_independent(5, edges, H.mask([2]))  # 0 and 4 stay free
    assert not H.is_maximal_independent(5, edges, H.mask([0]))
    assert not H.is_maximal_independent(5, edges, H.mask([0, 1]))  # not independent


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_alpha_at_least_greedy_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    g = Graph(n, edges)
    alpha = max_independent_set_size(g)
    mu = min_maximal_independent_set_size(g)
    assert 1 <= mu <= alpha <= n
    # alpha >= n / (max_degree + 1), a classical greedy fact
    assert alpha * (g.max_degree() + 1) >= n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 28), st.data())
def test_graph6_round_trip_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)) if pairs else []
    g = Graph(n, edges)
    assert parse_graph6(emit_graph6(g)) == g


# -- automorphisms ---------------------------------------------------------

def _is_automorphism(g, perm) -> bool:
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()) == g.edges()


def test_automorphisms_match_brute_force_on_all_small_graphs():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for pick in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if pick >> i & 1]
            gens = automorphism_generators(Graph(n, edges))
            assert H.perm_closure(gens, n) == H.brute_automorphisms(n, edges)


def test_setwise_stabilisers_match_brute_force_on_all_small_graphs():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        full = (1 << n) - 1
        masks = sorted({m & full for m in (1, 3, 5, 6, 13, 22, 27, full)} - {0})
        for pick in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if pick >> i & 1]
            g = Graph(n, edges)
            group = H.brute_automorphisms(n, edges)
            for s in masks:
                gens = automorphism_generators(g, setwise=s)
                fixing = {p for p in group if mask_of(p[v] for v in iter_bits(s)) == s}
                assert H.perm_closure(gens, n) == fixing, (n, edges, s)


def test_setwise_mask_must_be_a_vertex_set():
    g = generate("path:4")
    for bad in (-1, 1 << 4, 0b10101, "1"):
        with pytest.raises(GraphError):
            automorphism_generators(g, setwise=bad)
    assert automorphism_generators(g, setwise=0) == automorphism_generators(g)
    assert len(H.perm_closure(automorphism_generators(g, setwise=0b1111), 4)) == 2
    assert automorphism_generators(g, setwise=0b0001) == []


@pytest.mark.parametrize("spec,order", [
    ("empty:1", 1), ("empty:4", 24), ("empty:6", 720), ("empty:7", 5040),
    ("cycle:5", 10), ("cycle:8", 16), ("cycle:12", 24),
    ("spider:3,3,3,3", 24), ("spider:4,4,4", 6), ("spider:1,3,4,5", 1),
    ("kpartite:3,3", 72), ("kpartite:2,2,2", 48), ("path:7", 2), ("tristar:1", 48),
])
def test_automorphism_group_orders(spec, order):
    g = generate(spec)
    gens = automorphism_generators(g)
    assert all(_is_automorphism(g, p) for p in gens)
    assert len(H.perm_closure(gens, g.n)) == order


def test_automorphisms_of_regular_graphs():
    # every vertex looks alike to colour refinement, so most leaves below a
    # wrong choice are not automorphisms and must be rejected
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] \
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    cube = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    triangle_and_square = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    # Shrikhande graph: Z4 x Z4, steps +-(0,1), +-(1,0), +-(1,1); the search
    # reaches leaves with the right cell sizes that are not automorphisms
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = [(4 * a + b, 4 * c + d) for a, b, c, d in product(range(4), repeat=4)
                  if 4 * a + b < 4 * c + d and ((c - a) % 4, (d - b) % 4) in steps]
    rook = [(u, v) for u in range(16) for v in range(u + 1, 16)
            if u // 4 == v // 4 or u % 4 == v % 4]
    for n, edges, order in ((10, petersen, 120), (8, cube, 48), (7, triangle_and_square, 48),
                            (6, prism, 12), (16, shrikhande, 192), (16, rook, 1152)):
        g = Graph(n, edges)
        gens = automorphism_generators(g)
        assert all(_is_automorphism(g, p) for p in gens)
        assert len(H.perm_closure(gens, n)) == order


def test_automorphism_search_stops_early_with_a_valid_subgroup(monkeypatch):
    g = generate("kpartite:3,3,3")
    full = automorphism_generators(g)
    assert len(H.perm_closure(full, g.n)) == 1296
    orders = []
    for limit in (0, 1, 2, 5, 20):
        monkeypatch.setattr(graphs, "AUTOMORPHISM_NODE_LIMIT", limit)
        gens = automorphism_generators(g)
        assert all(_is_automorphism(g, p) for p in gens)
        orders.append(len(H.perm_closure(gens, g.n)))
    assert orders[0] == 1 and orders[2] < 1296
    assert orders == sorted(orders)


def test_automorphism_search_leaves_no_garbage():
    # the refinement search keeps its state on a local stack, so neither it
    # nor a verdict search on a non-tree graph leaves a reference cycle for
    # the cyclic collector, which is switched off so that it cannot hide one
    cases = [generate(spec) for spec in ("cycle:7", "kpartite:3,4", "empty:6")]
    gc.collect()
    gc.disable()
    try:
        for g in cases:
            automorphism_generators(g)
        assert gc.collect() == 0
        is_r_ekr(cases[-1], 2)
        max_nonstar_intersecting(cases[-1], 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _vertex_orbits(gens, n) -> set:
    root = list(range(n))
    for perm in gens:
        for x, y in enumerate(perm):
            root[H.uf_find(root, x)] = H.uf_find(root, y)
    return {frozenset(v for v in range(n) if H.uf_find(root, v) == H.uf_find(root, u))
            for u in range(n)}


def test_tree_generators_match_the_refinement_search_on_free_trees():
    rng = random.Random(1515)
    for n in range(1, 13):
        for t in free_trees(n):
            for s in [0] + [rng.randrange(1 << n) for _ in range(3)]:
                tree = graphs._tree_generators(t, s)
                refined = graphs._refinement_generators(t, s)
                assert automorphism_generators(t, setwise=s) == tree
                assert _vertex_orbits(tree, n) == _vertex_orbits(refined, n), (t.edges(), s)
                if n <= 8:
                    assert H.perm_closure(tree, n) == H.perm_closure(refined, n), (t.edges(), s)


def test_tree_generators_leave_non_trees_to_the_refinement_search():
    # n - 1 edges, but a triangle and a separate edge
    for edges in ([(0, 1), (1, 2), (2, 0), (3, 4)], [(0, 1), (1, 2), (2, 3), (3, 0)]):
        g = Graph(5, edges)
        assert graphs._tree_generators(g, 0) is None
        assert automorphism_generators(g) == graphs._refinement_generators(g, 0)
    assert graphs._tree_generators(generate("cycle:5"), 0) is None
    assert graphs._tree_generators(generate("empty:2"), 0) is None


def test_tree_generators_ignore_the_refinement_node_limit(monkeypatch):
    # 127! automorphisms: the centre is fixed and the leaves form one orbit
    g = generate("star:127")
    monkeypatch.setattr(graphs, "AUTOMORPHISM_NODE_LIMIT", 0)
    gens = automorphism_generators(g)
    assert all(graphs._is_automorphism(g.adj, p) for p in gens)
    assert _vertex_orbits(gens, g.n) == {frozenset([0]), frozenset(range(1, 128))}
