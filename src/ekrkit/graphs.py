"""Immutable bitset graphs: graph6 codec, named generators, automorphisms,
exact parameters.

Vertices are 0..n-1 and every vertex set in this package is a plain Python
int used as a bitset (bit i set <=> vertex i in the set).  Adjacency is a
tuple of such masks, one row per vertex, which keeps neighbourhood algebra
down to single big-int operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

MAX_VERTICES = 128

# exact alpha/mu search is only promised up to this many vertices
EXACT_PARAM_LIMIT = 40


class GraphError(ValueError):
    """Bad graph input (construction, parsing, generation)."""


class Graph6Error(GraphError):
    """Malformed graph6 text.  `kind` pins down which rule was broken."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


class GeneratorError(GraphError):
    """Unknown generator kind or out-of-range generator parameters."""


class SearchLimitError(RuntimeError):
    """Exact search refused: instance exceeds the exact-computation limit."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def find_root(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after build.

    Equality and hashing ignore the label: two graphs are equal iff they
    have the same vertex count and edge set.
    """

    __slots__ = ("n", "adj", "label")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), label: str = ""):
        if not isinstance(n, int) or n < 1:
            raise GraphError(f"vertex count must be a positive int, got {n!r}")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def max_degree(self) -> int:
        return max(self.degrees())

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def is_independent(self, mask: int) -> bool:
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if self.adj[v] & mask:
                return False
            m ^= low
        return True

    def components(self) -> list[int]:
        """Connected components as vertex masks, ordered by smallest member."""
        seen = 0
        comps = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = comp
            while frontier:
                grow = 0
                for v in iter_bits(frontier):
                    grow |= self.adj[v]
                frontier = grow & ~comp
                comp |= grow
            comps.append(comp)
            seen |= comp
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_forest(self) -> bool:
        return self.edge_count() == self.n - len(self.components())

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count() == self.n - 1

    def induced(self, keep_mask: int, label: str = "") -> tuple["Graph", list[int]]:
        """Induced subgraph on `keep_mask`, relabelled to 0..k-1.

        Returns (subgraph, old_ids) with old_ids[new] = original vertex.
        """
        old_ids = bit_list(keep_mask & self.vertex_mask)
        if not old_ids:
            raise GraphError("induced subgraph needs at least one vertex")
        pos = {old: new for new, old in enumerate(old_ids)}
        edges = []
        for new_u, old_u in enumerate(old_ids):
            for old_v in iter_bits(self.adj[old_u] & keep_mask):
                if old_v > old_u:
                    edges.append((new_u, pos[old_v]))
        return Graph(len(old_ids), edges, label=label), old_ids

    def relabel(self, label: str) -> "Graph":
        return Graph(self.n, self.edges(), label=label)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<Graph n={self.n} m={self.edge_count()}{tag}>"


# -- graph6 codec ------------------------------------------------------
#
# Standard printable encoding: header byte(s) give n, then the upper
# triangle x(0,1) x(0,2) x(1,2) x(0,3) ... packed 6 bits per byte, each
# byte offset by 63.  All bytes must lie in 63..126 and padding bits are 0.

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6Error("malformed-header", "empty graph6 string")
    data = [ord(ch) for ch in s]
    for b in data:
        if not 63 <= b <= 126:
            raise Graph6Error("byte-out-of-range",
                              f"byte {b} outside printable graph6 range 63..126")
    if data[0] == 126:  # multi-byte vertex count
        if len(data) >= 4 and data[1] != 126:
            n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
            body = data[4:]
        else:
            raise Graph6Error("too-large",
                              "8-byte vertex counts exceed the supported range")
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1:
        raise Graph6Error("malformed-header", f"vertex count {n} out of range")
    if n > MAX_VERTICES:
        raise Graph6Error("too-large",
                          f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error("malformed-header",
                          f"need {nbytes} edge bytes for n={n}, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error("trailing-garbage",
                          f"{len(body) - nbytes} unexpected bytes after edge data")
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            byte = body[k // 6] - 63
            bit = byte >> (5 - k % 6) & 1
            if bit:
                edges.append((row, col))
            k += 1
    # padding bits beyond the triangle must be zero
    while k < 6 * nbytes:
        byte = body[k // 6] - 63
        if byte >> (5 - k % 6) & 1:
            raise Graph6Error("trailing-garbage", "nonzero padding bits")
        k += 1
    return Graph(n, edges, label=f"graph6:{s}")


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [chr(n + 63)]
    else:
        head = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if g.has_edge(row, col) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        body.append(chr(val + 63))
    return "".join(head) + "".join(body)


def read_graph6_lines(text: str) -> list[Graph]:
    """One graph per non-blank line, optional >>graph6<< headers."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


# -- edge-list files ---------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated `u v` pairs, one edge per line, 0-indexed.

    The vertex count is the largest index seen plus one.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"edge list line {lineno}: expected `u v`, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"edge list line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise GraphError(f"edge list line {lineno}: negative vertex index")
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise GraphError("edge list contains no edges; vertex count undefined")
    return Graph(top + 1, edges, label="edges")


def format_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


# -- spiders -----------------------------------------------------------

def spider_order(legs) -> list[int]:
    """Permutation putting leg lengths in canonical order.

    Odd lengths come first in ascending order, then even lengths in
    descending order; ties keep input order.  Returns indices pi with
    ordered[j] = legs[pi[j]].
    """
    legs = list(legs)
    if any((not isinstance(x, int)) or x < 1 for x in legs):
        raise GraphError(f"leg lengths must be positive ints, got {legs!r}")

    def key(i):
        length = legs[i]
        return (1, -length) if length % 2 == 0 else (0, length)

    return sorted(range(len(legs)), key=key)


@dataclass(frozen=True)
class SpiderSpec:
    """A spider: one centre vertex w with k >= 3 disjoint legs (paths).

    Vertex layout of `realize()`: w = 0, then leg i (input order) occupies
    the next legs[i] vertices from u_i (adjacent to w) outward to the leaf
    v_i.  `order` is the canonical-order permutation over legs.
    """

    legs: tuple[int, ...]
    order: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        legs = tuple(int(x) for x in self.legs)
        object.__setattr__(self, "legs", legs)
        if len(legs) < 3:
            raise GeneratorError(f"spider needs k >= 3 legs, got {len(legs)}")
        if any(x < 1 for x in legs):
            raise GeneratorError(f"leg lengths must be >= 1, got {legs!r}")
        if 1 + sum(legs) > MAX_VERTICES:
            raise GeneratorError("spider exceeds the vertex limit")
        if self.order is None:
            object.__setattr__(self, "order", tuple(spider_order(legs)))
        else:
            order = tuple(self.order)
            if sorted(order) != list(range(len(legs))):
                raise GeneratorError(f"order {order!r} is not a permutation")
            object.__setattr__(self, "order", order)
            seq = [legs[i] for i in order]
            odds = [x for x in seq if x % 2]
            evens = [x for x in seq if x % 2 == 0]
            if seq != odds + evens or odds != sorted(odds) or evens != sorted(evens, reverse=True):
                raise GeneratorError(f"order {order!r} violates the leg ordering rules")

    @property
    def k(self) -> int:
        return len(self.legs)

    @property
    def n(self) -> int:
        return 1 + sum(self.legs)

    def leg_start(self, i: int) -> int:
        return 1 + sum(self.legs[:i])

    def inner_vertex(self, i: int) -> int:
        """u_i: the leg-i vertex adjacent to the centre."""
        return self.leg_start(i)

    def leaf_vertex(self, i: int) -> int:
        """v_i: the outer endpoint of leg i."""
        return self.leg_start(i) + self.legs[i] - 1

    def leg_path(self, i: int) -> list[int]:
        return list(range(self.leg_start(i), self.leg_start(i) + self.legs[i]))

    def realize(self) -> Graph:
        edges = []
        for i in range(self.k):
            path = self.leg_path(i)
            edges.append((0, path[0]))
            edges.extend(zip(path, path[1:]))
        return Graph(self.n, edges, label="spider:" + ",".join(map(str, self.legs)))


# -- generators --------------------------------------------------------

def _parse_int_args(arg: str, spec: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",")]
    except ValueError:
        raise GeneratorError(f"bad integer parameters in generator {spec!r}")


def generate(spec: str) -> Graph:
    """Build a named graph from a `kind:params` string.

    Kinds: empty:n, path:n, cycle:n, star:k, spider:l1,...,lk,
    kpartite:n1,...,nk, tristar:h.
    """
    if ":" not in spec:
        raise GeneratorError(f"generator spec {spec!r} is not of the form kind:params")
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "empty":
        (n,) = _parse_int_args(arg, spec)
        return Graph(n, (), label=spec)
    if kind == "path":
        (n,) = _parse_int_args(arg, spec)
        return Graph(n, zip(range(n - 1), range(1, n)), label=spec)
    if kind == "cycle":
        (n,) = _parse_int_args(arg, spec)
        if n < 3:
            raise GeneratorError(f"cycle needs n >= 3, got {n}")
        edges = list(zip(range(n - 1), range(1, n))) + [(n - 1, 0)]
        return Graph(n, edges, label=spec)
    if kind == "star":
        (k,) = _parse_int_args(arg, spec)
        if k < 1:
            raise GeneratorError(f"star needs k >= 1 leaves, got {k}")
        return Graph(k + 1, ((0, i) for i in range(1, k + 1)), label=spec)
    if kind == "spider":
        legs = _parse_int_args(arg, spec)
        return SpiderSpec(tuple(legs)).realize()
    if kind == "kpartite":
        sizes = _parse_int_args(arg, spec)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise GeneratorError(f"kpartite needs >= 2 positive part sizes, got {sizes!r}")
        n = sum(sizes)
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        edges = []
        for a in range(len(sizes)):
            for b in range(a + 1, len(sizes)):
                for u in range(starts[a], starts[a] + sizes[a]):
                    for v in range(starts[b], starts[b] + sizes[b]):
                        edges.append((u, v))
        return Graph(n, edges, label=spec)
    if kind == "tristar":
        (h,) = _parse_int_args(arg, spec)
        if h < 0:
            raise GeneratorError(f"tristar depth must be >= 0, got {h}")
        tree_sz = (1 << (h + 1)) - 1
        n = 1 + 3 * tree_sz
        if n > MAX_VERTICES:
            raise GeneratorError(f"tristar:{h} has {n} vertices, over the limit")
        edges = []
        for t in range(3):
            base = 1 + t * tree_sz
            edges.append((0, base))  # centre to root
            for i in range(tree_sz):
                for child in (2 * i + 1, 2 * i + 2):
                    if child < tree_sz:
                        edges.append((base + i, base + child))
        return Graph(n, edges, label=spec)
    raise GeneratorError(f"unknown generator kind {kind!r}")


# -- distance ----------------------------------------------------------

def distance(g: Graph, u: int, v: int) -> Optional[int]:
    """BFS distance between u and v; None when no path exists."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex out of range for n={g.n}")
    if u == v:
        return 0
    seen = 1 << u
    frontier = seen
    d = 0
    while frontier:
        d += 1
        grow = 0
        for w in iter_bits(frontier):
            grow |= g.adj[w]
        frontier = grow & ~seen
        if frontier >> v & 1:
            return d
        seen |= frontier
    return None


# -- automorphisms -----------------------------------------------------
#
# Individualisation-refinement (McKay, "Practical graph isomorphism", 1981).
# An ordered partition is a list of vertex masks.  Refinement splits cells by
# neighbour counts and puts the pieces in place in ascending count order, so
# it depends on positions and counts only, never on vertex labels: every
# automorphism maps the refined partition of a search node to the refined
# partition of the node's image.  That is what makes the search complete.

# refinements the generator search may run before it returns what it has
AUTOMORPHISM_NODE_LIMIT = 20_000


class _SearchStopped(Exception):
    pass


def _refine(adj: tuple, cells: list[int], splitters: list[int]) -> list[int]:
    """Coarsest equitable refinement of the ordered partition `cells`.

    Each splitter splits every cell by how many neighbours its vertices have
    in the splitter; every piece of a split cell becomes a splitter in turn.
    """
    n = sum(c.bit_count() for c in cells)
    queue = list(splitters)
    head = 0
    while head < len(queue) and len(cells) < n:
        w = queue[head]
        head += 1
        out = []
        for c in cells:
            if not c & (c - 1):
                out.append(c)
                continue
            pieces = {}
            m = c
            while m:
                low = m & -m
                m ^= low
                d = (adj[low.bit_length() - 1] & w).bit_count()
                pieces[d] = pieces.get(d, 0) | low
            if len(pieces) == 1:
                out.append(c)
                continue
            for d in sorted(pieces):
                out.append(pieces[d])
                queue.append(pieces[d])
        cells = out
    return cells


def _individualise(adj: tuple, cells: list[int], t: int, v: int) -> list[int]:
    """Split vertex v off the front of cell t, then refine."""
    bit = 1 << v
    return _refine(adj, cells[:t] + [bit, cells[t] ^ bit] + cells[t + 1:], [bit])


def _is_automorphism(adj: tuple, perm: list[int]) -> bool:
    """Does v -> perm[v] preserve adjacency?"""
    img = [1 << x for x in perm]

    def image(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= img[low.bit_length() - 1]
            mask ^= low
        return out

    return all(image(adj[v]) == adj[perm[v]] for v in range(len(perm)))


def automorphism_generators(g: Graph) -> list[tuple]:
    """Generators of the automorphism group of g.

    Each generator is a tuple perm with v -> perm[v].  The search refines to
    an equitable partition, follows one first path of individualisations
    down to a discrete leaf, and then, from the deepest level up, tries every
    vertex of that level's target cell that is not yet in the orbit of the
    first path's choice, keeping a leaf that maps onto the first leaf.  When
    every level is done, the generators span the whole group.  After
    AUTOMORPHISM_NODE_LIMIT refinements the search stops early and returns
    what it has found: a valid generating set of a subgroup.  Every
    permutation returned has been checked against the adjacency rows.
    """
    n, adj = g.n, g.adj
    path = [_refine(adj, [g.vertex_mask], [g.vertex_mask])]
    targets = []  # (cell index, first-path choice) per level
    while len(path[-1]) < n:
        p = path[-1]
        t = next(i for i, c in enumerate(p) if c & (c - 1))
        v = (p[t] & -p[t]).bit_length() - 1
        targets.append((t, v))
        path.append(_individualise(adj, p, t, v))
    first = [c.bit_length() - 1 for c in path[-1]]
    shapes = [[c.bit_count() for c in p] for p in path]
    nodes = 0

    def child(p: list[int], depth: int, w: int) -> Optional[list[int]]:
        """Refined child of p by w, or None when its cell sizes rule it out."""
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_NODE_LIMIT:
            raise _SearchStopped
        q = _individualise(adj, p, targets[depth][0], w)
        return q if [c.bit_count() for c in q] == shapes[depth + 1] else None

    def leaf_map(p: list[int], depth: int) -> Optional[list[int]]:
        """An automorphism taking the first leaf to a leaf below p, if any."""
        if depth == len(targets):
            perm = [0] * n
            for u, c in zip(first, p):
                perm[u] = c.bit_length() - 1
            return perm if _is_automorphism(adj, perm) else None
        for w in iter_bits(p[targets[depth][0]]):
            q = child(p, depth, w)
            if q is not None:
                perm = leaf_map(q, depth + 1)
                if perm is not None:
                    return perm
        return None

    orbit = list(range(n))  # union-find over the vertices
    gens = []
    try:
        for depth in reversed(range(len(targets))):
            t, v = targets[depth]
            for w in iter_bits(path[depth][t]):
                if find_root(orbit, w) == find_root(orbit, v):
                    continue
                q = child(path[depth], depth, w)
                perm = None if q is None else leaf_map(q, depth + 1)
                if perm is not None:
                    gens.append(tuple(perm))
                    for x, y in enumerate(perm):
                        orbit[find_root(orbit, x)] = find_root(orbit, y)
    except _SearchStopped:
        pass
    return gens


# -- exact parameters --------------------------------------------------

@dataclass(frozen=True)
class GraphParams:
    alpha: int          # max independent set size
    mu: int             # min maximal independent set size
    max_degree: int
    split_count: int    # vertices of degree >= 3
    edge_count: int


def max_independent_set_size(g: Graph, allowed: Optional[int] = None) -> int:
    """Exact alpha by branch and bound (take/skip a max-degree vertex)."""
    adj = g.adj
    best = 0

    def rec(allowed: int, size: int):
        nonlocal best
        while True:
            if size + allowed.bit_count() <= best:
                return
            # absorb isolated vertices, find a branching vertex
            pick, pick_deg = -1, -1
            absorbed = False
            for v in iter_bits(allowed):
                d = (adj[v] & allowed).bit_count()
                if d == 0:
                    allowed ^= 1 << v
                    size += 1
                    absorbed = True
                elif d > pick_deg:
                    pick, pick_deg = v, d
            if absorbed:
                if size + allowed.bit_count() <= best:
                    return
            if pick < 0:
                if size > best:
                    best = size
                return
            rec(allowed & ~(adj[pick] | (1 << pick)), size + 1)
            allowed ^= 1 << pick  # skip pick and loop

    rec(g.vertex_mask if allowed is None else allowed, 0)
    return best


def min_maximal_independent_set_size(g: Graph) -> int:
    """Exact mu: every maximal independent set must dominate each vertex,
    so branch over the closed neighbourhood of the first undominated one."""
    adj = g.adj
    full = g.vertex_mask
    best = g.n
    cover = g.max_degree() + 1  # one pick dominates at most this many vertices

    def rec(chosen: int, dominated: int, size: int):
        nonlocal best
        und = full & ~dominated
        if not und:
            if size < best:
                best = size
            return
        # each further pick dominates at most `cover` new vertices
        if size + (und.bit_count() + cover - 1) // cover >= best:
            return
        v = (und & -und).bit_length() - 1
        for u in [v] + bit_list(adj[v]):
            if adj[u] & chosen:
                continue  # would break independence
            rec(chosen | 1 << u, dominated | 1 << u | adj[u], size + 1)

    rec(0, 0, 0)
    return best


def is_maximal_independent(g: Graph, mask: int) -> bool:
    if not g.is_independent(mask):
        return False
    dominated = mask
    for v in iter_bits(mask):
        dominated |= g.adj[v]
    return dominated == g.vertex_mask


def params(g: Graph, limit: int = EXACT_PARAM_LIMIT) -> GraphParams:
    """Exact graph parameters; refuses loudly past the exact-search limit."""
    if g.n > limit:
        raise SearchLimitError(
            f"exact alpha/mu search is limited to n <= {limit}; got n = {g.n}")
    degs = g.degrees()
    return GraphParams(
        alpha=max_independent_set_size(g),
        mu=min_maximal_independent_set_size(g),
        max_degree=max(degs),
        split_count=sum(1 for d in degs if d >= 3),
        edge_count=sum(degs) // 2,
    )
