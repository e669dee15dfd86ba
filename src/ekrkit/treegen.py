"""Tree enumeration and exhaustive property sweeps.

Labeled trees come from Pruefer-sequence sweeps; isomorphism classes are
deduplicated by an integer rooted-at-centre key (the Aho-Hopcroft-Ullman
encoding).  The labeled sweep decodes and keys sequences in order and stops a
size once every free-tree class (OEIS A000055) has appeared; the remaining
sequences can only repeat a class.  Free trees are also generated directly by
leaf extension, which is vastly cheaper for the larger sizes the
counterexample hunts need.
`search_catalog` checks a property on every graph of a catalog at every
admissible set size and builds the canonical certificate only for findings;
`search_trees` runs it on the first labeled tree of each class.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Iterable, Optional

from .graphs import Graph, GraphError, _int_arg, bit_list, emit_graph6, max_independent_set_size
from .verify import BUDGET_EXCEEDED, NOT_EKR, SearchBudget, is_r_ekr, is_r_hk

# number of free trees on n = 1..20 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
                    19320, 48629, 123867, 317955, 823065)


def prufer_decode(seq: tuple, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n vertices with the given Pruefer sequence."""
    _int_arg("n", n, 1)
    if len(seq) != max(0, n - 2):
        raise GraphError(f"sequence length must be n-2={n - 2}, got {len(seq)}")
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    deg = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise GraphError(f"sequence entry {x} out of range")
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def _class_key(n: int, edges, shapes: dict) -> tuple:
    """Integer key of a tree's isomorphism class (Aho-Hopcroft-Ullman).

    Leaves are peeled layer by layer down to the one or two centres; each
    peeled vertex, and then each centre, gets the int that `shapes` maps the
    sorted tuple of its peeled children's ints to (new tuples get the next
    int).  The key is the sorted tuple of the centres' ints, so trees keyed
    against one `shapes` dict have equal keys iff they are isomorphic.
    """
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    deg = [len(a) for a in nbr]
    kids = [[] for _ in range(n)]
    remaining = n
    layer = [v for v in range(n) if deg[v] == 1]
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = -1  # peeled; a live vertex keeps deg >= 1 until one is left
            remaining -= 1
            k = kids[v]
            k.sort()
            k = tuple(k)
            code = shapes.get(k)
            if code is None:
                code = shapes[k] = len(shapes)
            for w in nbr[v]:
                if deg[w] > 0:
                    kids[w].append(code)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(shapes.setdefault(tuple(sorted(kids[v])), len(shapes))
                        for v in range(n) if deg[v] >= 0))


def _shape(kids: list[str]) -> str:
    return "(" + "".join(sorted(kids)) + ")"


def tree_certificate(n: int, edges) -> str:
    """Canonical certificate: minimum rooted shape string over the centres.

    A rooted shape is "(" + its children's shapes, sorted, + ")"; it is
    rendered from the integer key, whose shapes are numbered children first.
    Raises GraphError unless the edges form a tree on 0..n-1.
    """
    edges = list(edges)
    if len(edges) != n - 1 or not Graph(n, edges).is_tree():
        raise GraphError(f"{len(edges)} edges on {n} vertices do not form a tree")
    shapes = {}
    key = _class_key(n, edges, shapes)
    kids = list(shapes)
    text = []
    for k in kids:
        text.append(_shape([text[c] for c in k]))
    if len(key) == 1:
        return text[key[0]]
    a, b = key
    return min(_shape([text[c] for c in kids[a]] + [text[b]]),
               _shape([text[c] for c in kids[b]] + [text[a]]))


def _first_of_each_class(n: int, edge_lists):
    """The first edge list of each isomorphism class among trees on n vertices.

    Stops once all FREE_TREE_COUNTS[n-1] classes have appeared; the rest can
    only repeat a class.  Sizes past the table are scanned to the end.
    """
    classes = FREE_TREE_COUNTS[n - 1] if n <= len(FREE_TREE_COUNTS) else None
    seen, shapes = set(), {}
    for edges in edge_lists:
        key = _class_key(n, edges, shapes)
        if key not in seen:
            seen.add(key)
            yield edges
            if len(seen) == classes:
                return


_FREE_CACHE: dict[int, list[tuple]] = {1: [()]}


def _free_tree_edge_lists(n: int) -> list[tuple]:
    for m in range(max(_FREE_CACHE) + 1, n + 1):
        grown = (edges + ((v, m - 1),) for edges in _FREE_CACHE[m - 1] for v in range(m - 1))
        _FREE_CACHE[m] = sorted(_first_of_each_class(m, grown),
                                key=lambda edges: tree_certificate(m, edges))
    return _FREE_CACHE[n]


def free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices."""
    return [Graph(n, edges, label=f"free-tree-{n}-{i}")
            for i, edges in enumerate(_free_tree_edge_lists(_int_arg("n", n, 1)))]


# -- exhaustive sweeps ---------------------------------------------------

PROP_HK = "hk"
PROP_EKR = "ekr"


@dataclass(frozen=True)
class SweepFinding:
    n: int
    r: int
    certificate: str
    graph6: str
    verdict: str
    detail: tuple  # sorted (key, value) pairs

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "certificate": self.certificate,
            "graph6": self.graph6,
            "verdict": self.verdict,
            "detail": {k: v for k, v in self.detail},
        }


@dataclass(frozen=True)
class SweepSummary:
    property: str
    n_max: int
    labeled_seen: int
    unique_graphs: int
    checks: int
    findings: tuple
    budget_exceeded: int

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "n_max": self.n_max,
            "labeled_seen": self.labeled_seen,
            "unique_graphs": self.unique_graphs,
            "checks": self.checks,
            "findings": [f.to_json_dict() for f in self.findings],
            "budget_exceeded": self.budget_exceeded,
        }


def _check_hk(g: Graph, r: int, budget: Optional[SearchBudget]):
    rep = is_r_hk(g, r)
    if rep.holds:
        return "holds", None
    return "leaf_not_max", (("best_vertex", rep.best_vertex),
                            ("star_sizes", list(rep.star_sizes)))


def _check_ekr(g: Graph, r: int, budget: Optional[SearchBudget]):
    rep = is_r_ekr(g, r, budget)
    if rep.verdict == NOT_EKR:
        return NOT_EKR, (("max_star_size", rep.max_star_size),
                         ("max_intersecting_size", rep.max_intersecting_size),
                         ("witness", [bit_list(m) for m in rep.witness]))
    if rep.verdict == BUDGET_EXCEEDED:
        return BUDGET_EXCEEDED, (("nodes_explored", rep.nodes_explored),)
    return rep.verdict, None


# property -> check(g, r, budget) giving (verdict, detail); detail is None
# unless the verdict is a finding
_CHECKS = {PROP_HK: _check_hk, PROP_EKR: _check_ekr}


def search_catalog(prop: str, graphs: Iterable[Graph], r_max: Optional[int] = None,
                   budget: Optional[SearchBudget] = None,
                   on_finding: Optional[Callable] = None) -> SweepSummary:
    """Check prop on every graph of the catalog at every r up to min(r_max, alpha).

    Each graph counts once as seen and once as unique; the certificate (the
    tree certificate for trees, graph6 otherwise) is built only for findings.
    """
    check = _CHECKS.get(prop)
    if check is None:
        raise GraphError(f"unknown sweep property {prop!r}")
    if r_max is not None:
        _int_arg("r_max", r_max, 1)
    seen = checks = blown = n_max = 0
    findings = []
    for g in graphs:
        seen += 1
        n_max = max(n_max, g.n)
        alpha = max_independent_set_size(g)
        r_hi = alpha if r_max is None else min(r_max, alpha)
        for r in range(1, r_hi + 1):
            checks += 1
            verdict, detail = check(g, r, budget)
            if verdict == BUDGET_EXCEEDED:
                blown += 1
            if detail is not None:
                g6 = emit_graph6(g)
                cert = tree_certificate(g.n, g.edges()) if g.is_tree() else g6
                f = SweepFinding(g.n, r, cert, g6, verdict, detail)
                findings.append(f)
                if on_finding is not None:
                    on_finding(f)
    return SweepSummary(prop, n_max, seen, seen, checks, tuple(findings), blown)


def search_trees(prop: str, n_max: int, r_max: Optional[int] = None,
                 budget: Optional[SearchBudget] = None, n_min: int = 2,
                 on_finding: Optional[Callable] = None) -> SweepSummary:
    """Sweep every labeled tree on n_min..n_max vertices for counterexamples.

    Pruefer sequences give all n^(n-2) labeled trees; isomorphism duplicates
    are skipped, so the first tree of each class is checked once for every
    admissible set size r.  Each sequence is decoded and given the integer
    class key until all FREE_TREE_COUNTS[n-1] classes have appeared (for
    n = 8 and 9 within the first 2% of them); the rest can only repeat a
    class and are counted, not decoded.  Sizes past the table are scanned to
    the end.  labeled_seen is the sum of n^(n-2) over the swept sizes.
    """
    _int_arg("n_min", n_min, 1)
    _int_arg("n_max", n_max, n_min)

    def labeled_representatives():
        for n in range(n_min, n_max + 1):
            trees = (prufer_decode(seq, n) for seq in product(range(n), repeat=max(n - 2, 0)))
            for i, edges in enumerate(_first_of_each_class(n, trees)):
                yield Graph(n, edges, label=f"tree-{n}-{i}")

    summary = search_catalog(prop, labeled_representatives(), r_max, budget, on_finding)
    labeled = sum(n ** max(n - 2, 0) for n in range(n_min, n_max + 1))
    return replace(summary, n_max=n_max, labeled_seen=labeled)

