import gc
import hashlib
import json
import random
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrkit.families import (
    CLOSED_FORM,
    ENUMERATION,
    TREE_DP,
    CountResult,
    all_independent_sets,
    count_path_rsets,
    count_rsets,
    enum_independent_rsets,
    indep_size_counts,
    indep_size_counts_tree_dp,
    merge_paths,
    merge_tree_paths,
    splitstar_witness,
    star_size,
    star_vector_tree_dp,
    star_vectors_tree_dp,
)
from ekrkit.graphs import Graph, GraphError, SpiderSpec, generate
from ekrkit.bounds import binom, spider_star_lower
from ekrkit.treegen import free_trees
from ekrkit.verify import nonuniform_ekr

import helpers as H


# -- enumeration vs brute force -------------------------------------------

def test_enum_matches_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 11)
        edges = H.random_graph_edges(rng, n, rng.randint(0, 2 * n))
        g = Graph(n, edges)
        for r in range(0, min(n, 5) + 1):
            got = list(enum_independent_rsets(g, r))
            assert got == H.brute_independent_rsets(n, edges, r)
            assert got == sorted(got)  # ascending bitset order


def test_enum_anchor_and_forbidden():
    # the anchored and restricted counts of the enumeration route, against the
    # brute-force r-sets that contain the anchor and avoid the forbidden mask
    g = generate("path:6")
    assert indep_size_counts(g, anchor=0, max_size=2) == [0, 1, 4]  # {0}; {0, 2..5}
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 10)
        edges = H.random_graph_edges(rng, n, rng.randint(0, 2 * n))
        g = Graph(n, edges)
        anchor = rng.choice([None, *range(n)])
        forbidden = rng.getrandbits(n) & ~(0 if anchor is None else 1 << anchor)
        want = [sum(1 for m in H.brute_independent_rsets(n, edges, r)
                    if not m & forbidden and (anchor is None or m >> anchor & 1))
                for r in range(n + 1)]
        assert indep_size_counts(g, anchor, forbidden) == want, (n, edges, anchor, forbidden)


def test_anchor_and_forbidden_validation():
    g = generate("path:4")
    for r in (-1, 5):
        with pytest.raises(GraphError, match=f"need an int 0 <= r <= 4, got r={r}"):
            enum_independent_rsets(g, r)
    # indep_size_counts and count_rsets take anchor and forbidden by the same rules
    for kw in (dict(anchor=9), dict(anchor=-1), dict(forbidden=H.mask([9])),
               dict(forbidden=-1), dict(anchor=1, forbidden=H.mask([1]))):
        with pytest.raises(GraphError):
            indep_size_counts(g, **kw)
        with pytest.raises(GraphError):
            count_rsets(g, 2, **kw)
    with pytest.raises(GraphError, match="need an int r >= 0, got r=-1"):
        count_rsets(g, -1)
    assert indep_size_counts(g, anchor=0, forbidden=H.mask([2])) == [0, 1, 1, 0, 0]


def test_all_independent_sets():
    g = generate("path:4")
    got = all_independent_sets(g)
    assert got == H.brute_all_independent_sets(4, g.edges())
    assert 0 not in got
    assert all_independent_sets(Graph(1, [])) == [1]
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 10)
        edges = H.random_graph_edges(rng, n, rng.randint(0, 2 * n))
        assert all_independent_sets(Graph(n, edges)) == H.brute_all_independent_sets(n, edges)


def test_enumeration_leaves_no_garbage():
    # the subset enumerations keep their state on local stacks: no reference
    # cycle is left for the cyclic collector, which is switched off so that it
    # cannot hide one.  On a tree the search takes its automorphisms from
    # rooted codes, so nonuniform_ekr leaves none either.
    path = generate("path:7")
    graphs = [path, generate("cycle:7"), generate("kpartite:3,4")]
    gc.collect()
    gc.disable()
    try:
        nonuniform_ekr(path)
        for g in graphs:
            all_independent_sets(g)
            indep_size_counts(g, anchor=0)
            count_rsets(g, 3, method=ENUMERATION)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_indep_size_counts_vs_brute():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 10)
        edges = H.random_graph_edges(rng, n, rng.randint(0, 2 * n))
        g = Graph(n, edges)
        counts = indep_size_counts(g)
        for r in range(n + 1):
            assert counts[r] == len(H.brute_independent_rsets(n, edges, r)), (n, edges, r)


def test_count_rsets_method_tag():
    g = generate("cycle:5")
    res = count_rsets(g, 2, method=ENUMERATION)
    assert res.count == 5 and res.method == ENUMERATION
    # auto: tree DP only for an anchored forest with nothing forbidden
    s = generate("spider:2,2,2")
    assert count_rsets(s, 2) == count_rsets(s, 2, method=ENUMERATION)
    assert count_rsets(s, 2, anchor=2) == CountResult(5, TREE_DP)
    assert count_rsets(s, 2, anchor=2, forbidden=1) == CountResult(4, ENUMERATION)
    assert count_rsets(g, 2, anchor=1) == CountResult(2, ENUMERATION)
    assert count_rsets(generate("path:4"), 7, anchor=1, method=TREE_DP) == CountResult(0, TREE_DP)
    for method in ("auto", ENUMERATION, TREE_DP, CLOSED_FORM):  # nothing r long is built
        assert count_rsets(generate("path:4"), 10 ** 12, method=method).count == 0
    for kw in ({"forbidden": 1, "method": TREE_DP}, {"anchor": 0, "method": CLOSED_FORM},
               {"method": "auto-ish"}):
        with pytest.raises(GraphError):
            count_rsets(s, 2, **kw)
    with pytest.raises(GraphError):
        count_rsets(g, 2, method=CLOSED_FORM)  # not a path


# -- closed form for paths -------------------------------------------------

def test_count_path_rsets_formula():
    # frozen small table, checked by hand: P_10 at r=3 gives C(8,3)? no:
    # binom(10-3+1, 3) = C(8,3) = 56; P_10 endpoint star at r=3 is C(7,2)=21
    assert count_path_rsets(10, 3).count == comb(8, 3) == 56
    assert count_path_rsets(5, 2).count == 6
    assert count_path_rsets(4, 0).count == 1
    assert count_path_rsets(3, 2).count == 1
    assert count_path_rsets(3, 3).count == 0
    assert count_path_rsets(0, 0).count == 1
    assert count_path_rsets(6, 2).method == CLOSED_FORM


def test_count_path_rsets_vs_enumeration():
    for m in range(1, 13):
        g = generate(f"path:{m}") if m > 1 else Graph(1)
        counts = indep_size_counts(g)
        for r in range(m + 2):
            expect = counts[r] if r <= m else 0
            assert count_path_rsets(m, r).count == expect, (m, r)


# -- tree DP ----------------------------------------------------------------

def test_tree_dp_counts_vs_enumeration_random_trees():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 14)
        edges = H.random_tree_edges(rng, n)
        g = Graph(n, edges)
        assert indep_size_counts_tree_dp(g) == indep_size_counts(g)


def test_tree_dp_on_forests():
    g = Graph(7, [(0, 1), (1, 2), (4, 5)])  # three components
    assert indep_size_counts_tree_dp(g) == indep_size_counts(g)
    for v in range(7):
        assert star_vector_tree_dp(g, v) == indep_size_counts(g, anchor=v)


def test_tree_dp_rejects_cycles():
    g = generate("cycle:4")
    with pytest.raises(GraphError):
        indep_size_counts_tree_dp(g)
    with pytest.raises(GraphError):
        star_vector_tree_dp(g, 0)


def test_star_vector_vs_enumeration_random_trees():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 13)
        edges = H.random_tree_edges(rng, n)
        g = Graph(n, edges)
        v = rng.randrange(n)
        assert star_vector_tree_dp(g, v) == indep_size_counts(g, anchor=v)



def test_star_vector_cap_zero_on_one_vertex():
    g = Graph(1)
    assert star_vector_tree_dp(g, 0)[:1] == [0]
    assert [vec[:1] for vec in star_vectors_tree_dp(g)] == [[0]]
    assert star_vectors_tree_dp(g) == [[0, 1]]


def test_star_vectors_match_per_vertex_routes_on_free_trees():
    for n in range(1, 10):
        for g in free_trees(n):
            full = star_vectors_tree_dp(g)
            assert full == [star_vector_tree_dp(g, v) for v in range(n)], g.edges()
            for cap in range(1, n + 1):
                assert [vec[:cap + 1] for vec in full] == [
                    indep_size_counts(g, anchor=v, max_size=cap) for v in range(n)], (g.edges(), cap)


def test_star_vectors_validation():
    with pytest.raises(GraphError):
        star_vectors_tree_dp(generate("cycle:4"))
    # the tree DPs give every size 0..n; only enumeration takes a cap, which
    # may not be negative and pads with zeros past n
    p4 = generate("path:4")
    for cap in (-1, -3):
        with pytest.raises(GraphError, match=f"need an int max_size >= 0, got max_size={cap}"):
            indep_size_counts(p4, max_size=cap)
    assert indep_size_counts(p4, max_size=6) == [1, 4, 3, 0, 0, 0, 0]
    assert indep_size_counts_tree_dp(p4) == [1, 4, 3, 0, 0]
    assert star_vector_tree_dp(p4, 1) == [0, 1, 1, 0, 0]


def test_tree_dp_at_the_vertex_limit():
    # counts here reach about 2**123, so packing slots too narrow for them
    # would carry into the next coefficient
    n = 128
    path = generate(f"path:{n}")

    def path_counts(m):
        return [count_path_rsets(m, r).count for r in range(n + 1)]

    assert indep_size_counts_tree_dp(path) == path_counts(n)
    stars = star_vectors_tree_dp(path)
    for v in (0, 1, 2, 40, 63, 64, 126, 127):
        # v excludes its neighbours: paths of v - 1 and n - v - 2 vertices remain
        left, right = path_counts(max(v - 1, 0)), path_counts(max(n - v - 2, 0))
        want = [sum(left[a] * right[r - 1 - a] for a in range(r)) for r in range(n + 1)]
        assert stars[v] == want, v
    star = generate("star:127")
    centre = [int(r == 1) for r in range(n + 1)]
    leaf = [comb(126, r - 1) if r else 0 for r in range(n + 1)]
    assert star_vectors_tree_dp(star) == [centre] + [leaf] * 127
    assert star_vector_tree_dp(star, 0) == centre
    assert star_vector_tree_dp(star, 127) == leaf


def test_star_vectors_digest_pins_the_list_dp():
    # SHA-256 of star_vectors_tree_dp(g) over every spider with n <= 14 and
    # every free tree with n <= 11, as computed by the coefficient-list DP
    # that the packed-integer DP replaced
    graphs = [generate("spider:" + ",".join(map(str, legs)))
              for n in range(4, 15) for legs in H.iter_partitions(n - 1, min_parts=3)]
    graphs += [t for n in range(1, 12) for t in free_trees(n)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(json.dumps(star_vectors_tree_dp(g)).encode() + b"\n")
    assert len(graphs) == 753
    assert digest.hexdigest() == (
        "6a37dbcf0ba8f9b9917cbd1bf4c1ff6667884ff6e8e707704d42d239ed2f42fb")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.data())
def test_star_vectors_on_forests_property(n, data):
    # vertex v > 0 hangs off an earlier vertex or starts a new component
    parents = data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    edges = [(perm[p], perm[v]) for v, p in enumerate(parents) if 0 <= p < v]
    g = Graph(n, edges)
    cap = data.draw(st.integers(0, n))
    want = [indep_size_counts(g, anchor=v, max_size=cap) for v in range(n)]
    assert [vec[:cap + 1] for vec in star_vectors_tree_dp(g)] == want
    assert [star_vector_tree_dp(g, v)[:cap + 1] for v in range(n)] == want
    assert indep_size_counts_tree_dp(g)[:cap + 1] == indep_size_counts(g, max_size=cap)

def test_star_size_methods_agree_and_tag():
    g = generate("spider:2,2,2")
    assert [star_size(g, v, 2).count for v in range(7)] == [3, 4, 5, 4, 5, 4, 5]
    assert star_size(g, 2, 2).method == TREE_DP  # forests default to the DP
    assert count_rsets(g, 2, anchor=2, method=ENUMERATION).count == 5
    c = generate("cycle:6")
    assert star_size(c, 0, 2).method == ENUMERATION
    assert star_size(c, 0, 2).count == 3
    with pytest.raises(GraphError):
        star_size(g, 9, 2)
    assert star_size(g, 0, 99).count == 0  # r > n counts 0, as count_rsets does


def test_star_sizes_on_named_graphs():
    tri = generate("tristar:1")
    sizes = [star_size(tri, v, 2).count for v in range(tri.n)]
    assert sizes[0] == 6  # centre
    assert sizes == [6, 6, 8, 8, 6, 8, 8, 6, 8, 8]
    p = generate("path:10")
    assert star_size(p, 0, 3).count == binom(7, 2) == 21  # endpoint


# -- path merges -------------------------------------------------------------

def test_merge_without_centre():
    spec = SpiderSpec((2, 2, 2))
    m = merge_paths(spec, "without_w")
    assert m.graph.n == 6 and m.graph.is_tree() and m.graph.max_degree() == 2
    assert m.order == (2, 1, 4, 3, 6, 5)  # legs reversed, canonical order
    assert m.junctions == ((1, 2), (3, 4))
    assert m.removed == 1  # just the centre
    assert m.marked_position == 4  # the last canonical leg's leaf
    # junction edges must not exist in the source
    for a, b in m.junctions:
        assert not m.source.has_edge(m.order[a], m.order[b])
    # non-junction path edges must exist in the source
    for p in range(5):
        if (p, p + 1) not in m.junctions:
            assert m.source.has_edge(m.order[p], m.order[p + 1])


def test_merge_with_centre_neighbourhood():
    spec = SpiderSpec((2, 2, 2))
    m = merge_paths(spec, "with_w")
    assert m.graph.n == 3
    assert m.order == (2, 4, 6)  # only the outer halves survive
    assert m.removed == H.mask([0, 1, 3, 5])
    assert m.junctions == ((0, 1), (1, 2))
    with pytest.raises(GraphError):
        merge_paths(SpiderSpec((1, 2, 2)), "with_w")
    with pytest.raises(GraphError):
        merge_paths(spec, "sideways")


def test_merge_piece_independence():
    spec = SpiderSpec((2, 2, 2))
    m = merge_paths(spec, "without_w")
    # positions 1,2 span a junction: allowed among pieces, not in the path
    assert m.independent_in_pieces(H.mask([1, 2]))
    assert not m.graph.is_independent(H.mask([1, 2]))
    # positions 0,1 are a real source edge (leaf-inner of leg 0)
    assert not m.independent_in_pieces(H.mask([0, 1]))


def test_merge_tree_paths():
    t = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], label="h-tree")
    m = merge_tree_paths(t, H.mask([0, 1]))
    assert m.graph.n == 4
    assert m.order == (2, 3, 4, 5)
    assert m.junctions == ((0, 1), (1, 2), (2, 3))
    # removing just one branch vertex still works here: 4-1-5 is a path
    m1 = merge_tree_paths(t, H.mask([0]))
    assert m1.order == (4, 1, 5, 2, 3)
    assert m1.junctions == ((2, 3), (3, 4))
    # a surviving degree-3 vertex is not mergeable
    with pytest.raises(GraphError):
        merge_tree_paths(generate("star:3"), 0)
    with pytest.raises(GraphError, match="expects a tree"):
        merge_tree_paths(generate("cycle:4"), 1)
    # removing everything leaves nothing
    with pytest.raises(GraphError):
        merge_tree_paths(t, t.vertex_mask)
    longer = generate("spider:3,1,2")
    m2 = merge_tree_paths(longer, 1)
    assert m2.graph.n == 6
    assert [m2.order[p] for p in range(6)] == [1, 2, 3, 4, 5, 6]
    assert m2.junctions == ((2, 3), (3, 4))


def test_rsets_and_tree_merges_are_pinned():
    # SHA-256 over enum_independent_rsets on every nonempty networkx-atlas
    # graph at every r from -1 to n + 1 (the out-of-range ends give their
    # error message) and merge_tree_paths on every free tree with n <= 10,
    # removing its branch vertices, those plus two random extra sets, and
    # one random set (results or error messages)
    def outcome(fn, *args):
        try:
            return fn(*args)
        except GraphError as e:
            return f"GraphError: {e}"

    def merged(t, removed):
        m = merge_tree_paths(t, removed)
        return [m.graph.n, m.graph.label, m.order, m.junctions, m.removed,
                m.marked_position]

    rng = random.Random(7)
    digest = hashlib.sha256()
    count = 0
    for a in nx.graph_atlas_g()[1:]:
        g = Graph(a.number_of_nodes(), list(a.edges()))
        for r in range(-1, g.n + 2):
            out = outcome(lambda: list(enum_independent_rsets(g, r)))
            digest.update(json.dumps(out).encode() + b"\n")
            count += 1
    for n in range(1, 11):
        for t in free_trees(n):
            branch = H.mask(v for v in range(n) if t.degree(v) >= 3)
            extras = [rng.getrandbits(n) for _ in range(3)]
            for removed in (branch, branch | extras[0], branch | extras[1], extras[2]):
                digest.update(json.dumps(outcome(merged, t, removed)).encode() + b"\n")
                count += 1
    assert count == 13035
    assert digest.hexdigest() == (
        "55d24f48b07c584677c9407b308e2bb5a889bdc46f098b283672adfe9b5100ea")


def test_merge_piece_errors():
    spec = SpiderSpec((2, 2, 2))
    g = spec.realize()
    from ekrkit.families import _merge_from_pieces
    with pytest.raises(GraphError):
        _merge_from_pieces(g, 1, [[1, 4]], "bad")  # not an edge
    with pytest.raises(GraphError):
        _merge_from_pieces(g, 1, [[2, 1], [4, 3]], "bad")  # misses vertices


# -- witness surgery ---------------------------------------------------------

def test_splitstar_witness_moves_pair_onto_junction():
    spec = SpiderSpec((2, 2, 2))
    m = merge_paths(spec, "with_w")  # P_3, removed = 4 vertices
    out = splitstar_witness(m, H.mask([0, 2]), junction=0)
    assert out == H.mask([0, 1])
    assert m.independent_in_pieces(out)
    assert not m.graph.is_independent(out)


def test_splitstar_witness_fixed_point():
    spec = SpiderSpec((2, 2, 2))
    m = merge_paths(spec, "with_w")
    # a set already sitting on the junction maps to itself
    assert splitstar_witness(m, H.mask([0, 1]), junction=0) == H.mask([0, 1])


def test_splitstar_witness_larger_instance():
    spec = SpiderSpec((3, 3, 3))
    m = merge_paths(spec, "with_w")  # P_6 on the outer leg halves
    out = splitstar_witness(m, H.mask([0, 3, 5]), junction=1)
    assert out.bit_count() == 3
    assert m.independent_in_pieces(out)
    assert not m.graph.is_independent(out)
    u1, u2 = m.junctions[1]
    assert out >> u1 & 1 and out >> u2 & 1


def test_splitstar_witness_validation():
    spec = SpiderSpec((2, 2, 2))
    m_no = merge_paths(spec, "without_w")  # removed = centre only
    with pytest.raises(GraphError):
        splitstar_witness(m_no, H.mask([0, 2]))
    m = merge_paths(spec, "with_w")
    with pytest.raises(GraphError):
        splitstar_witness(m, H.mask([0]))  # r = 1
    with pytest.raises(GraphError):
        splitstar_witness(m, H.mask([0, 2]), junction=5)
    with pytest.raises(GraphError):
        splitstar_witness(m, H.mask([0, 9]))  # outside the path
    one_piece = merge_tree_paths(generate("path:4"), H.mask([0, 3]))
    with pytest.raises(GraphError, match="no junction"):
        splitstar_witness(one_piece, H.mask([0, 1]))
    pairs = merge_paths(SpiderSpec((3, 3, 3)), "with_w")  # pieces of two vertices
    with pytest.raises(GraphError, match="not independent in the piece graph"):
        splitstar_witness(pairs, H.mask([0, 1]))


def test_merge_equality_placement_diagnostic():
    """The marked leaf lands interior to the merged path, so its path star
    is strictly smaller than the endpoint star the closed-form bound uses;
    the final star-size bound still holds.  Keeps the observed gap pinned.
    """
    spec = SpiderSpec((2, 2, 2))
    g = spec.realize()
    m = merge_paths(spec, "without_w")
    r = 2
    marked_pos = m.marked_position
    assert 0 < marked_pos < m.graph.n - 1  # interior, not an endpoint
    marked_star = indep_size_counts(m.graph, anchor=marked_pos, max_size=r)[r]
    endpoint_star = indep_size_counts(m.graph, anchor=0, max_size=r)[r]
    closed_form = binom(spec.n - r - 1, r - 1)
    exact = star_size(g, spec.leaf_vertex(spec.order[-1]), r).count
    assert marked_star == 3
    assert endpoint_star == closed_form == 4
    assert exact == 5
    assert marked_star < closed_form <= exact
    assert exact >= spider_star_lower(spec.n, spec.k, r)


# -- cross-checks between counting routes --------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 4), st.data())
def test_tree_dp_vs_enumeration_property(n, r, data):
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2),
                             max_size=max(0, n - 2)))
    g = Graph(n, H.simple_prufer_decode(seq, n))
    counts = indep_size_counts_tree_dp(g)
    assert (counts[r] if r <= n else 0) == indep_size_counts(g, max_size=r)[r]
