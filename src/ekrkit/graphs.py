"""Immutable bitset graphs: graph6 codec, named generators, automorphisms,
exact parameters.

Vertices are 0..n-1 and every vertex set in this package is a plain Python
int used as a bitset (bit i set <=> vertex i in the set).  Adjacency is a
tuple of such masks, one row per vertex, which keeps neighbourhood algebra
down to single big-int operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Iterable, Iterator, Optional

MAX_VERTICES = 128


class GraphError(ValueError):
    """Bad graph input (construction, parsing, generation)."""


def _is_int(x) -> bool:
    """x is an int; a bool is an int to isinstance, but not a size."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_arg(name: str, x, lo: Optional[int] = None, hi: Optional[int] = None):
    """x, if it is an int (not a bool) with lo <= x <= hi, where an end that is
    None is open: the one rule for every size, vertex and vertex-mask argument.
    Otherwise GraphError, naming name=x and the bound."""
    if _is_int(x) and (lo is None or lo <= x) and (hi is None or x <= hi):
        return x
    if hi is None:
        bound = name if lo is None else f"{name} >= {lo}"
    else:
        bound = f"{name} <= {hi}" if lo is None else f"{lo} <= {name} <= {hi}"
    raise GraphError(f"need an int {bound}, got {name}={x!r}")


class Graph6Error(GraphError):
    """Malformed graph6 text.  `kind` pins down which rule was broken."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


class GeneratorError(GraphError):
    """Unknown generator kind or out-of-range generator parameters."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


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
        if _int_arg("n", n, 1) > MAX_VERTICES:
            raise GraphError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit")
        rows = [0] * n
        for u, v in edges:
            if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u!r},{v!r}) out of range for n={n}")
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
        if len(data) > 1 and data[1] == 126:
            raise Graph6Error("too-large",
                              "8-byte vertex counts exceed the supported range")
        if len(data) < 4:
            raise Graph6Error("malformed-header", "truncated 4-byte vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
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


# -- spiders -----------------------------------------------------------

def spider_order(legs) -> list[int]:
    """Permutation putting leg lengths in canonical order.

    Odd lengths come first in ascending order, then even lengths in
    descending order; ties keep input order.  Returns indices pi with
    ordered[j] = legs[pi[j]].
    """
    legs = [_int_arg("leg", x, 1) for x in legs]

    def key(i):
        length = legs[i]
        return (1, -length) if length % 2 == 0 else (0, length)

    return sorted(range(len(legs)), key=key)


@dataclass(frozen=True)
class SpiderSpec:
    """A spider: one centre vertex w with k >= 3 disjoint legs (paths).

    Vertex layout of `realize()`: w = 0, then leg i (input order) occupies
    the next legs[i] vertices from u_i (adjacent to w) outward to the leaf
    v_i.
    """

    legs: tuple[int, ...]

    def __post_init__(self):
        legs = tuple(self.legs)
        object.__setattr__(self, "legs", legs)
        if len(legs) < 3:
            raise GeneratorError(f"spider needs k >= 3 legs, got {len(legs)}")
        if any(not _is_int(x) or x < 1 for x in legs):
            raise GeneratorError(f"leg lengths must be >= 1, got {legs!r}")
        if 1 + sum(legs) > MAX_VERTICES:
            raise GeneratorError("spider exceeds the vertex limit")

    @property
    def order(self) -> tuple[int, ...]:
        """The canonical-order permutation over legs (`spider_order`)."""
        return tuple(spider_order(self.legs))

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


GENERATOR_KINDS = ("empty", "path", "cycle", "star", "spider", "kpartite", "tristar")


def generate(spec: str) -> Graph:
    """Build a named graph from a `kind:params` string, kind in GENERATOR_KINDS.

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
        return Graph(n, chain(zip(range(n - 1), range(1, n)), [(n - 1, 0)]), label=spec)
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
        starts = list(accumulate(sizes, initial=0))  # part i is starts[i]..starts[i+1]-1
        edges = ((u, v) for a, b in combinations(range(len(sizes)), 2)
                 for u in range(starts[a], starts[a + 1])
                 for v in range(starts[b], starts[b + 1]))
        return Graph(starts[-1], edges, label=spec)
    if kind == "tristar":
        (h,) = _parse_int_args(arg, spec)
        if h < 0:
            raise GeneratorError(f"tristar depth must be >= 0, got {h}")
        # 1 + 3(2^(h+1) - 1) vertices; capping h keeps 2^(h+1) small, and any
        # h past the cap is over the limit as well
        tree_sz = (2 << min(h, MAX_VERTICES)) - 1
        n = 1 + 3 * tree_sz
        if n > MAX_VERTICES:
            raise GeneratorError(f"tristar:{h} exceeds the {MAX_VERTICES}-vertex limit")
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


def automorphism_generators(g: Graph, setwise: int = 0) -> list[tuple]:
    """Generators of the automorphism group of g, or with a nonzero vertex
    mask `setwise`, of its setwise stabiliser: the automorphisms that map
    that vertex set onto itself.

    Each generator is a tuple perm with v -> perm[v].  A tree gets its
    generators from rooted codes (`_tree_generators`), which always span the
    whole group: AUTOMORPHISM_NODE_LIMIT never applies to trees.  Every other
    graph goes through the refinement search (`_refinement_generators`),
    which returns a valid generating set of a subgroup when it stops at that
    limit.  Every permutation returned has been checked against the
    adjacency rows and against `setwise`.
    """
    _int_arg("setwise", setwise, 0, g.vertex_mask)
    gens = _tree_generators(g, setwise)
    return _refinement_generators(g, setwise) if gens is None else gens


def _checked(adj: tuple, setwise: int, perm: list[int]) -> bool:
    """Is perm an automorphism that maps `setwise` onto itself?"""
    fixed = all(setwise >> perm[u] & 1 for u in iter_bits(setwise))
    return fixed and _is_automorphism(adj, perm)


def _tree_generators(g: Graph, setwise: int) -> Optional[list[tuple]]:
    """Automorphism generators of the tree g fixing `setwise` setwise, or
    None when g is not a tree.

    Leaves are peeled layer by layer down to the one or two centres, which
    every automorphism maps onto themselves.  Rooted there, each vertex gets
    the int that `codes` gives to (is it in `setwise`, sorted codes of its
    children), so two subtrees have equal codes iff some colour-preserving
    isomorphism maps one onto the other, and pairing their children in code
    order builds it (Aho, Hopcroft, Ullman, 1974).  An automorphism fixing
    the centres permutes each vertex's children within equal codes, so the
    swaps of adjacent equal-coded siblings, below every vertex, generate
    that group; the swap of two equal-coded centres adds the rest.
    """
    n, adj = g.n, g.adj
    if g.edge_count() != n - 1:
        return None
    deg = g.degrees()
    kids = [[] for _ in range(n)]
    peeled = []  # children before parents
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        if not layer:
            return None  # the rest holds a cycle
        nxt = []
        for v in layer:
            deg[v] = -1
            remaining -= 1
            peeled.append(v)
            for w in iter_bits(adj[v]):
                if deg[w] > 0:
                    kids[w].append(v)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centres = [v for v in range(n) if deg[v] >= 0]
    codes = {}
    code = [0] * n
    for v in peeled + centres:
        kids[v].sort(key=code.__getitem__)
        key = (setwise >> v & 1, tuple(code[c] for c in kids[v]))
        code[v] = codes.setdefault(key, len(codes))

    def swap(a: int, b: int) -> list[int]:
        perm = list(range(n))
        todo = [(a, b)]
        while todo:
            x, y = todo.pop()
            perm[x], perm[y] = y, x
            todo.extend(zip(kids[x], kids[y]))
        return perm

    pairs = [(a, b) for v in peeled + centres for a, b in zip(kids[v], kids[v][1:])
             if code[a] == code[b]]
    if len(centres) == 2 and code[centres[0]] == code[centres[1]]:
        pairs.append(tuple(centres))
    perms = [swap(a, b) for a, b in pairs]
    return [tuple(perm) for perm in perms if _checked(adj, setwise, perm)]


def _refinement_generators(g: Graph, setwise: int) -> list[tuple]:
    """Automorphism generators of any graph by individualisation-refinement.

    The search refines the partition [setwise, rest], leaving out an empty
    cell, to an equitable partition, follows one first path of
    individualisations down to a discrete leaf, and then, from the deepest
    level up, tries every vertex of that level's target cell that is not yet
    in the orbit of the first path's choice, keeping a leaf that maps onto
    the first leaf.  When every level is done, the generators span the whole
    group.  After AUTOMORPHISM_NODE_LIMIT refinements the search stops early
    and returns what it has found.
    """
    n, adj = g.n, g.adj
    start = [c for c in (setwise, g.vertex_mask ^ setwise) if c]
    path = [_refine(adj, start, start)]
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
    orbit = list(range(n))  # union-find over the vertices
    gens = []
    for level in reversed(range(len(targets))):
        t, v = targets[level]
        for w in iter_bits(path[level][t]):
            if find_root(orbit, w) == find_root(orbit, v):
                continue
            # depth first below the child by w for a leaf that the first leaf
            # maps onto; an entry (node, depth, todo) holds the vertices of the
            # node's target cell whose children are still to try, lowest first
            perm = None
            stack = [(path[level], level, 1 << w)]
            while stack and perm is None:
                p, depth, todo = stack.pop()
                if not todo:
                    continue
                low = todo & -todo
                stack.append((p, depth, todo ^ low))
                nodes += 1
                if nodes > AUTOMORPHISM_NODE_LIMIT:
                    return gens
                q = _individualise(adj, p, targets[depth][0], low.bit_length() - 1)
                if [c.bit_count() for c in q] != shapes[depth + 1]:
                    continue  # cell sizes rule this child out
                if depth + 1 < len(targets):
                    stack.append((q, depth + 1, q[targets[depth + 1][0]]))
                    continue
                perm = [0] * n
                for u, c in zip(first, q):
                    perm[u] = c.bit_length() - 1
                if not _checked(adj, setwise, perm):
                    perm = None
            if perm is not None:
                gens.append(tuple(perm))
                for x, y in enumerate(perm):
                    orbit[find_root(orbit, x)] = find_root(orbit, y)
    return gens


# -- exact parameters --------------------------------------------------

def max_independent_set_size(g: Graph) -> int:
    """Exact alpha by branch and bound (take/skip a max-degree vertex)."""
    adj = g.adj
    best = 0
    # depth first: each node goes on with its take child at once and leaves
    # its skip child on the stack, so the take subtree is searched first
    stack = [(g.vertex_mask, 0)]
    while stack:
        allowed, size = stack.pop()
        while size + allowed.bit_count() > best:
            # absorb isolated vertices, find a branching vertex
            pick, pick_deg = -1, -1
            for v in iter_bits(allowed):
                d = (adj[v] & allowed).bit_count()
                if d == 0:
                    allowed ^= 1 << v
                    size += 1
                elif d > pick_deg:
                    pick, pick_deg = v, d
            if pick < 0:
                best = max(best, size)
                break
            stack.append((allowed ^ 1 << pick, size))
            allowed &= ~(adj[pick] | (1 << pick))
            size += 1
    return best


def min_maximal_independent_set_size(g: Graph) -> int:
    """Exact mu: every maximal independent set must dominate each vertex,
    so branch over the closed neighbourhood of the first undominated one."""
    adj = g.adj
    full = g.vertex_mask
    best = g.n
    cover = g.max_degree() + 1  # one pick dominates at most this many vertices
    stack = [(0, 0, 0)]  # (chosen, dominated, size), depth first
    while stack:
        chosen, dominated, size = stack.pop()
        und = full & ~dominated
        if not und:
            best = min(best, size)
            continue
        # each further pick dominates at most `cover` new vertices
        if size + (und.bit_count() + cover - 1) // cover >= best:
            continue
        v = (und & -und).bit_length() - 1
        # pushed in reverse so that v, then its neighbours in order, are tried first
        for u in reversed([v] + bit_list(adj[v])):
            if not adj[u] & chosen:  # else u would break independence
                stack.append((chosen | 1 << u, dominated | 1 << u | adj[u], size + 1))
    return best

