"""Tree enumeration and exhaustive property sweeps.

Labeled trees come from full Pruefer-sequence sweeps; isomorphism classes
are deduplicated by an integer rooted-at-centre key (the Aho-Hopcroft-Ullman
encoding), and the canonical certificate string is built only for the first
tree of each new class and for findings.  Free trees are also generated
directly by leaf extension, which is vastly cheaper for the larger sizes the
counterexample hunts need.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional

from .graphs import Graph, GraphError, bit_list, emit_graph6, max_independent_set_size
from .verify import (BUDGET_EXCEEDED, NOT_EKR, SearchBudget, default_budget,
                     is_r_ekr, is_r_hk)

# number of free trees on n = 1..11 vertices
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235)


def prufer_decode(seq: tuple, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n vertices with the given Pruefer sequence."""
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
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


def iter_labeled_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """Every labeled tree on n vertices, one edge list per Pruefer sequence."""
    if n <= 2:
        yield prufer_decode((), n)
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


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


_FREE_CACHE: dict[int, list[tuple[tuple, str]]] = {1: [((), "()")]}


def _free_tree_edge_lists(n: int) -> list[tuple[tuple, str]]:
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
    top = max(_FREE_CACHE)
    for m in range(top + 1, n + 1):
        seen = {}
        shapes = {}
        for edges, _cert in _FREE_CACHE[m - 1]:
            for v in range(m - 1):
                cand = edges + ((v, m - 1),)
                seen.setdefault(_class_key(m, cand, shapes), cand)
        _FREE_CACHE[m] = sorted(((e, tree_certificate(m, e)) for e in seen.values()),
                                key=lambda t: t[1])
    return _FREE_CACHE[n]


def free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices."""
    out = []
    for i, (edges, _cert) in enumerate(_free_tree_edge_lists(n)):
        out.append(Graph(n, edges, label=f"free-tree-{n}-{i}"))
    return out


def iter_partitions(total: int, min_parts: int = 1,
                    max_part: Optional[int] = None) -> Iterator[tuple]:
    """Nonincreasing positive tuples summing to total with >= min_parts parts."""
    cap = total if max_part is None else max_part

    def rec(rest: int, bound: int, acc: list):
        if rest == 0:
            if len(acc) >= min_parts:
                yield tuple(acc)
            return
        for part in range(min(bound, rest), 0, -1):
            acc.append(part)
            yield from rec(rest - part, part, acc)
            acc.pop()

    yield from rec(total, cap, [])


def iter_compositions(total: int, min_parts: int = 1) -> Iterator[tuple]:
    """All ordered positive tuples summing to total with >= min_parts parts."""

    def rec(rest: int, acc: list):
        if rest == 0:
            if len(acc) >= min_parts:
                yield tuple(acc)
            return
        for part in range(1, rest + 1):
            acc.append(part)
            yield from rec(rest - part, acc)
            acc.pop()

    yield from rec(total, [])


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


def _check_one(prop: str, g: Graph, r: int, budget: SearchBudget):
    """(is_finding, verdict, detail) for one graph at one set size."""
    if prop == PROP_HK:
        rep = is_r_hk(g, r)
        if rep.holds:
            return False, "holds", ()
        detail = (("best_vertex", rep.best_vertex),
                  ("star_sizes", list(rep.star_sizes)))
        return True, "leaf_not_max", detail
    if prop == PROP_EKR:
        rep = is_r_ekr(g, r, budget)
        if rep.verdict == NOT_EKR:
            detail = (("max_star_size", rep.max_star_size),
                      ("max_intersecting_size", rep.max_intersecting_size),
                      ("witness", [bit_list(m) for m in rep.witness]))
            return True, NOT_EKR, detail
        if rep.verdict == BUDGET_EXCEEDED:
            return True, BUDGET_EXCEEDED, (("nodes_explored", rep.nodes_explored),)
        return False, rep.verdict, ()
    raise GraphError(f"unknown sweep property {prop!r}")


def search_trees(prop: str, n_max: int, r_max: Optional[int] = None,
                 budget: Optional[SearchBudget] = None, n_min: int = 2,
                 on_finding: Optional[Callable] = None) -> SweepSummary:
    """Sweep every labeled tree on n_min..n_max vertices for counterexamples.

    Pruefer sequences give all n^(n-2) labeled trees; isomorphism duplicates
    are skipped via an integer class key, so each class is checked once for
    every admissible set size r.  The certificate string is built only for
    the first tree of each new class.
    """
    if prop == PROP_EKR:
        budget = budget or default_budget()
    if n_max < n_min:
        raise GraphError(f"n_max={n_max} below n_min={n_min}")
    labeled = 0
    unique = 0
    checks = 0
    blown = 0
    findings = []
    for n in range(n_min, n_max + 1):
        seen = set()
        shapes = {}
        for edges in iter_labeled_trees(n):
            labeled += 1
            key = _class_key(n, edges, shapes)
            if key in seen:
                continue
            seen.add(key)
            unique += 1
            cert = tree_certificate(n, edges)
            g = Graph(n, edges, label=f"tree-{n}-{len(seen) - 1}")
            alpha = max_independent_set_size(g)
            r_hi = alpha if r_max is None else min(r_max, alpha)
            for r in range(1, r_hi + 1):
                checks += 1
                bad, verdict, detail = _check_one(prop, g, r, budget)
                if verdict == BUDGET_EXCEEDED:
                    blown += 1
                if bad:
                    f = SweepFinding(n, r, cert, emit_graph6(g), verdict, detail)
                    findings.append(f)
                    if on_finding is not None:
                        on_finding(f)
    return SweepSummary(prop, n_max, labeled, unique, checks, tuple(findings), blown)


def search_catalog(prop: str, graphs: list[Graph], r_max: Optional[int] = None,
                   budget: Optional[SearchBudget] = None,
                   on_finding: Optional[Callable] = None) -> SweepSummary:
    """Run the same per-graph checks over an explicit catalog of graphs."""
    if prop == PROP_EKR:
        budget = budget or default_budget()
    checks = 0
    blown = 0
    findings = []
    n_max = 0
    for g in graphs:
        n_max = max(n_max, g.n)
        alpha = max_independent_set_size(g)
        r_hi = alpha if r_max is None else min(r_max, alpha)
        for r in range(1, r_hi + 1):
            checks += 1
            bad, verdict, detail = _check_one(prop, g, r, budget)
            if verdict == BUDGET_EXCEEDED:
                blown += 1
            if bad:
                g6 = emit_graph6(g)
                cert = tree_certificate(g.n, g.edges()) if g.is_tree() else g6
                f = SweepFinding(g.n, r, cert, g6, verdict, detail)
                findings.append(f)
                if on_finding is not None:
                    on_finding(f)
    return SweepSummary(prop, n_max, len(graphs), len(graphs), checks,
                        tuple(findings), blown)
