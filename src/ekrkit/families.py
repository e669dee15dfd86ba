"""Independent r-sets: enumeration, exact counting, star sizes, surgeries.

A "star" at v is the family of independent r-sets containing v; its size
s_r(v) is the central quantity here.  Counting routes are deliberately
redundant (subset branching vs rooted tree DP vs closed forms) so they can
cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, GraphError, SpiderSpec, _int_arg, bit_list, iter_bits

ENUMERATION = "enumeration"
TREE_DP = "tree-dp"
CLOSED_FORM = "closed-form"


def _check_anchor(g: Graph, anchor: Optional[int], forbidden: int) -> None:
    """GraphError unless forbidden is a mask of g's vertices and anchor (if
    given) is a vertex of g outside it."""
    _int_arg("forbidden", forbidden, 0, g.vertex_mask)
    if anchor is not None:
        _int_arg("anchor", anchor, 0, g.n - 1)
        if forbidden >> anchor & 1:
            raise GraphError("anchor vertex is also forbidden")


@dataclass(frozen=True)
class CountResult:
    count: int
    method: str  # enumeration | tree-dp | closed-form


def enum_independent_rsets(g: Graph, r: int) -> list[int]:
    """The independent r-sets of g in ascending bitset order."""
    if _int_arg("r", r, 0, g.n) == 0:
        return [0]
    adj = g.adj
    out = []
    # (vertices that may join, set so far, members still needed): each entry
    # adds its largest vertex v and leaves the others, all below v, to a
    # sibling entry, so the sets come out in descending order
    stack = [(g.vertex_mask, 0, r)]
    while stack:
        m, acc, need = stack.pop()
        v = m.bit_length() - 1
        m ^= 1 << v
        if m.bit_count() >= need:
            stack.append((m, acc, need))
        if need == 1:
            out.append(acc | 1 << v)
        else:
            below = m & ~adj[v]
            if below.bit_count() >= need - 1:
                stack.append((below, acc | 1 << v, need - 1))
    out.reverse()
    return out


def all_independent_sets(g: Graph) -> list[int]:
    """All nonempty independent sets of every size, ascending as bitset integers."""
    adj = g.adj
    out = []
    stack = [(g.vertex_mask, 0)]  # (vertices that may join, set so far)
    while stack:
        m, acc = stack.pop()
        while m:
            low = m & -m
            m ^= low
            s = acc | low
            out.append(s)
            ext = m & ~adj[low.bit_length() - 1]
            if ext:
                stack.append((ext, s))
    out.sort()
    return out


def indep_size_counts(g: Graph, anchor: Optional[int] = None, forbidden: int = 0,
                      max_size: Optional[int] = None) -> list[int]:
    """counts[s] = number of independent s-sets (anchored/restricted).

    Subset branching in ascending vertex order; every independent set is
    visited exactly once, so the cost is proportional to the total count.
    anchor must be a vertex outside the vertex mask forbidden, forbidden may
    mention only vertices of g, and max_size (default n) may not be negative.
    """
    _check_anchor(g, anchor, forbidden)
    adj = g.adj
    cap = g.n if max_size is None else _int_arg("max_size", max_size, 0)
    allowed = g.vertex_mask & ~forbidden
    base = 0
    if anchor is not None:
        allowed &= ~(adj[anchor] | 1 << anchor)
        base = 1
    counts = [0] * (cap + 1)
    if base > cap:
        return counts
    counts[base] = 1
    # (vertices that may join, set size): each of them makes a set one larger
    stack = [(allowed, base)] if allowed and base < cap else []
    while stack:
        m, size = stack.pop()
        size += 1
        counts[size] += m.bit_count()
        if size < cap:
            while m:
                low = m & -m
                m ^= low
                ext = m & ~adj[low.bit_length() - 1]
                if ext:
                    stack.append((ext, size))
    return counts


def count_path_rsets(m: int, r: int) -> CountResult:
    """Independent r-sets of the path on m vertices: C(m - r + 1, r)."""
    _int_arg("m", m, 0)
    _int_arg("r", r, 0)
    return CountResult(math.comb(max(m - r + 1, 0), r), CLOSED_FORM)


# -- rooted tree DP ----------------------------------------------------

def _rooted_polys(g: Graph, first: int = 0):
    """The down pass shared by every tree DP: (order, parent, roots, inc, exc).

    Roots the component of `first` at `first` and every other component at
    its smallest vertex; `roots` lists them in that order.  `order` is
    breadth-first, one component after another, so parents come before
    their children.  inc[u] / exc[u] count the independent sets of u's
    subtree with u in / out, packed into one int with the count of s-sets
    at bit (n + 1) * s.  Raises GraphError unless g is a forest.

    Packing is exact: every coefficient any tree DP builds counts independent
    sets of a subgraph of g, so it is below 2**n and no slot carries into the
    next.  A packed product is thus the packed polynomial product, and an
    exact integer quotient the packed polynomial quotient.
    """
    n = g.n
    adj = g.adj
    parent = [-1] * n
    order = []
    roots = []
    seen = 0
    i = 0
    for s in (first, *range(n)):
        if seen >> s & 1:
            continue
        roots.append(s)
        seen |= 1 << s
        order.append(s)
        while i < len(order):
            u = order[i]
            i += 1
            new = adj[u] & ~seen
            seen |= new
            for w in iter_bits(new):
                parent[w] = u
                order.append(w)
    if g.edge_count() != n - len(roots):
        raise GraphError("tree DP requires a forest")
    inc = [1 << (n + 1)] * n
    exc = [1] * n
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            inc[p] *= exc[u]
            exc[p] *= inc[u] + exc[u]
    return order, parent, roots, inc, exc


def _unpack(poly: int, n: int) -> list[int]:
    # coefficients 0..n of a polynomial packed with n + 1 bits per slot
    w = n + 1
    mask = (1 << w) - 1
    return [poly >> (w * s) & mask for s in range(n + 1)]


def indep_size_counts_tree_dp(g: Graph) -> list[int]:
    """counts[s] = independent s-sets of the forest g, for s = 0..n: the
    product of the roots' totals inc + exc after one down pass."""
    _order, _parent, roots, inc, exc = _rooted_polys(g)
    return _unpack(math.prod(inc[s] + exc[s] for s in roots), g.n)


def star_vector_tree_dp(g: Graph, v: int) -> list[int]:
    """counts[s] = independent s-sets of the forest g containing v, for s = 0..n.

    One down pass with v's component rooted at v: inc[v] times the other
    components' totals.  The per-vertex reference for star_vectors_tree_dp.
    """
    _int_arg("v", v, 0, g.n - 1)
    _order, _parent, roots, inc, exc = _rooted_polys(g, first=v)
    return _unpack(inc[v] * math.prod(inc[s] + exc[s] for s in roots[1:]), g.n)


def _star_polys(g: Graph) -> list[int]:
    """The packed star polynomial of every vertex of the forest g.

    One rerooting pass instead of one DP per vertex: after the down pass, a
    pass down the order recovers, for each child, the rest of the tree as
    seen from it by dividing its parent's whole-tree polynomials by the
    child's factor.  Other components enter as the product of their totals.
    """
    n = g.n
    order, parent, roots, inc, exc = _rooted_polys(g)
    forest = math.prod(inc[s] + exc[s] for s in roots)
    whole_inc, whole_exc = inc[:], exc[:]  # the whole component, rooted at u
    others = [0] * n  # product of the other components' totals
    for u in order:
        p = parent[u]
        if p < 0:
            others[u] = forest // (inc[u] + exc[u])
            continue
        others[u] = others[p]
        up_inc = whole_inc[p] // exc[u]
        up_exc = whole_exc[p] // (inc[u] + exc[u])
        whole_inc[u] = inc[u] * up_exc
        whole_exc[u] = exc[u] * (up_inc + up_exc)
    return [others[v] * whole_inc[v] for v in range(n)]


def star_vectors_tree_dp(g: Graph) -> list[list[int]]:
    """star_vector_tree_dp(g, v) for every vertex v of the forest g, from one
    rerooting pass."""
    return [_unpack(poly, g.n) for poly in _star_polys(g)]


def _star_column(polys: list[int], n: int, r: int) -> list[int]:
    """s_r(v) for every vertex v of an n-vertex forest whose `_star_polys` are
    `polys`, for an int r >= 0 (all 0 when r > n): column r of
    star_vectors_tree_dp, shifting out only coefficient r."""
    w = n + 1
    mask = (1 << w) - 1
    return [poly >> (w * r) & mask for poly in polys]


def _star_alpha(polys: list[int], n: int) -> int:
    """alpha of the n-vertex forest whose `_star_polys` are `polys`: the
    highest power of any star polynomial."""
    return (max(polys).bit_length() - 1) // (n + 1)


def count_rsets(g: Graph, r: int, anchor: Optional[int] = None, forbidden: int = 0,
                method: str = "auto") -> CountResult:
    """Exact count of the independent r-sets of g that contain `anchor` (if
    given) and avoid the vertex mask `forbidden`.

    method "auto" runs the tree DP on an anchored forest with nothing
    forbidden and enumeration otherwise; "tree-dp" needs a forest and takes
    no forbidden vertices; "closed-form" counts the sets of a path (n <= 1
    included) with no anchor and nothing forbidden.  An r above n counts 0
    under every method; r < 0, an anchor outside g or inside `forbidden`, and
    a forbidden vertex outside g raise GraphError.
    """
    _int_arg("r", r, 0)
    _check_anchor(g, anchor, forbidden)
    if method == "auto":
        tree = anchor is not None and not forbidden and g.is_forest()
        method = TREE_DP if tree else ENUMERATION
    # both counting routes stop at size n, so an r above n costs nothing extra
    if method == ENUMERATION:
        counts = indep_size_counts(g, anchor, forbidden, max_size=min(r, g.n))
        return CountResult(counts[r] if r <= g.n else 0, ENUMERATION)
    if method == TREE_DP:
        if forbidden:
            raise GraphError("tree DP takes no forbidden vertices; use enumeration")
        counts = indep_size_counts_tree_dp(g) if anchor is None else star_vector_tree_dp(g, anchor)
        return CountResult(counts[r] if r <= g.n else 0, TREE_DP)
    if method == CLOSED_FORM:
        if anchor is not None or forbidden:
            raise GraphError("closed form has no anchored/restricted variant")
        if g.n > 1 and not (g.is_tree() and g.max_degree() <= 2):
            raise GraphError("closed form applies to paths only")
        return count_path_rsets(g.n, r)
    raise GraphError(f"unknown counting method {method!r}")


def star_size(g: Graph, v: int, r: int) -> CountResult:
    """s_r(v): exact count of independent r-sets containing v."""
    _int_arg("v", v, 0, g.n - 1)
    _int_arg("r", r, 0, g.n)
    return count_rsets(g, r, anchor=v)


# -- path-merge surgeries ----------------------------------------------

@dataclass(frozen=True)
class PathMerge:
    """A disjoint union of paths joined end-to-end into one path.

    graph: the merged path; position p is adjacent to p+1.
    order: order[p] = source-graph vertex sitting at position p.
    junctions: (p, p+1) pairs whose edge was added by the merge, i.e. does
        NOT exist in source minus removed.
    removed: mask of source vertices deleted before merging.
    marked_position: position of the distinguished vertex (the last leaf in
        canonical leg order for spider merges; -1 otherwise).
    """

    graph: Graph
    order: tuple[int, ...]
    junctions: tuple[tuple[int, int], ...]
    source: Graph
    removed: int
    marked_position: int = -1

    def independent_in_pieces(self, mask: int) -> bool:
        """Independence in source-minus-removed, i.e. ignoring junction edges."""
        junctions = set(self.junctions)
        m = mask
        while m:
            low = m & -m
            p = low.bit_length() - 1
            if mask >> (p + 1) & 1 and p + 1 < self.graph.n and (p, p + 1) not in junctions:
                return False
            m ^= low
        return True


def _merge_from_pieces(source: Graph, removed: int, pieces: list[list[int]],
                       label: str, marked: int = -1) -> PathMerge:
    seen = 0
    for piece in pieces:
        for a, b in zip(piece, piece[1:]):
            if not source.has_edge(a, b):
                raise GraphError(f"piece step {a}-{b} is not an edge of the source graph")
        for v in piece:
            if removed >> v & 1 or seen >> v & 1:
                raise GraphError(f"vertex {v} repeated or removed in merge pieces")
            seen |= 1 << v
    if seen != source.vertex_mask & ~removed:
        raise GraphError("merge pieces must cover exactly the surviving vertices")
    order = [v for piece in pieces for v in piece]
    p = len(order)
    graph = Graph(p, zip(range(p - 1), range(1, p)), label=label)
    junctions = []
    pos = 0
    for piece in pieces[:-1]:
        pos += len(piece)
        junctions.append((pos - 1, pos))
    marked_position = order.index(marked) if marked >= 0 else -1
    return PathMerge(graph, tuple(order), tuple(junctions), source, removed, marked_position)


def merge_paths(spec: SpiderSpec, mode: str) -> PathMerge:
    """Join the legs of a spider into one path after removing the centre.

    mode "without_w": drop w, chain the legs leaf-end to inner-end (the
    junction edges run from each leg's inner vertex to the next leg's leaf),
    giving a path on n-1 vertices.  mode "with_w": drop the whole closed
    neighbourhood of w (needs every leg length >= 2), giving n-1-k vertices.
    Legs are chained in canonical leg order; the marked position tracks the
    last leaf in that order.
    """
    g = spec.realize()
    marked = spec.leaf_vertex(spec.order[-1])
    if mode == "without_w":
        pieces = [list(reversed(spec.leg_path(i))) for i in spec.order]
        return _merge_from_pieces(g, 1, pieces, f"{g.label}-merged", marked)
    if mode == "with_w":
        if any(x < 2 for x in spec.legs):
            raise GraphError("with_w merge needs every leg length >= 2")
        removed = 1
        for i in range(spec.k):
            removed |= 1 << spec.inner_vertex(i)
        pieces = [list(reversed(spec.leg_path(i)))[:-1] for i in spec.order]
        return _merge_from_pieces(g, removed, pieces, f"{g.label}-core-merged", marked)
    raise GraphError(f"unknown merge mode {mode!r}")


def merge_tree_paths(t: Graph, removed: int) -> PathMerge:
    """Remove a vertex set from a tree and chain the leftover paths.

    Every component of t - removed must already be a path (true whenever
    removed covers all vertices of degree >= 3).  Pieces are ordered by
    smallest vertex and oriented from their lower-numbered endpoint.
    """
    if not t.is_tree():
        raise GraphError("merge_tree_paths expects a tree")
    _int_arg("removed", removed, 0, t.vertex_mask)
    rest = t.vertex_mask & ~removed
    if not rest:
        raise GraphError("nothing left to merge after removal")
    sub, ids = t.induced(rest)
    if sub.max_degree() > 2:
        raise GraphError("a surviving component is not a path; remove its branch vertices")
    pieces = []
    for comp in sub.components():
        # walk the path from its lower-numbered end
        cur = min(u for u in iter_bits(comp) if sub.degree(u) <= 1)
        piece = []
        while comp:
            piece.append(ids[cur])
            comp ^= 1 << cur
            cur = (sub.adj[cur] & comp).bit_length() - 1
        pieces.append(piece)
    return _merge_from_pieces(t, removed, pieces, f"{t.label or 'tree'}-merged")


def splitstar_witness(merged: PathMerge, a_mask: int, junction: int = 0) -> int:
    """Trade the two set members nearest a junction for the junction pair.

    Given an independent r-set A of the piece graph, returns
    A' = (A - {a', a''}) + {u', u''} where (u', u'') is the chosen junction
    edge, a' is the member of A nearest u' (ties toward lower positions) and
    a'' the member of A - {a'} nearest u'' (ties toward higher positions).
    A' is independent among the pieces but not in the merged path, which is
    what makes the map injective into the non-path families.
    """
    if merged.removed.bit_count() < 2:
        raise GraphError("witness surgery needs more than one removed branch vertex")
    if not merged.junctions:
        raise GraphError("merge has no junction to trade against")
    _int_arg("junction", junction, 0, len(merged.junctions) - 1)
    _int_arg("a_mask", a_mask, 0, merged.graph.vertex_mask)
    r = a_mask.bit_count()
    if r < 2:
        raise GraphError("witness surgery needs r >= 2")
    if not merged.independent_in_pieces(a_mask):
        raise GraphError("A is not independent in the piece graph")
    u1, u2 = merged.junctions[junction]
    positions = bit_list(a_mask)
    a1 = min(positions, key=lambda p: (abs(p - u1), p))
    a2 = min((p for p in positions if p != a1), key=lambda p: (abs(p - u2), -p))
    out = a_mask & ~(1 << a1) & ~(1 << a2) | (1 << u1) | (1 << u2)
    # construction guarantees, kept as hard checks
    if out.bit_count() != r:
        raise AssertionError("witness lost or gained elements")
    if not merged.independent_in_pieces(out):
        raise AssertionError("witness not independent among the pieces")
    if merged.graph.is_independent(out):
        raise AssertionError("witness unexpectedly independent in the merged path")
    return out

