"""Tree enumeration and exhaustive property sweeps.

Free trees, one per isomorphism class, are generated by leaf extension: every
tree on n vertices is a tree on n - 1 vertices plus a leaf, so growing each
class representative of size n - 1 at every vertex reaches every class of
size n.  Each grown tree gets one canonical certificate, its shape string
rooted at the centre (the Aho-Hopcroft-Ullman encoding), and the first tree
of each certificate is kept.
`search_catalog` checks a property on every graph of a catalog at every
admissible set size and builds the canonical certificate only for findings;
`search_trees` runs it on the free trees of each size.  Each graph is
prepared once for all its set sizes, and the preparation is dropped with
the graph's last check: the `ekr` searches share one set of Aut(G)
generators, and the `hk` checks read every size's star sizes, and alpha,
off one rerooting DP.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from . import verify
from .families import _star_alpha, _star_column, _star_polys
from .graphs import Graph, GraphError, _int_arg, bit_list, emit_graph6, max_independent_set_size
from .verify import BUDGET_EXCEEDED, NOT_EKR, SearchBudget


def _shape(kids: list[str]) -> str:
    return "(" + "".join(sorted(kids)) + ")"


def _certificate(n: int, edges) -> str:
    """The minimum rooted shape string of a tree over its centres.

    A rooted shape is "(" + its children's shapes, sorted, + ")".  Leaves are
    peeled layer by layer down to the one or two centres, and each peeled
    vertex hands its shape to its one live neighbour.  Two centres give the
    smaller of the two rootings, each taking the other centre's shape as one
    more child.  The edges must form a tree on 0..n-1.
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
            shape = _shape(kids[v])
            for w in nbr[v]:
                if deg[w] > 0:
                    kids[w].append(shape)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centres = [kids[v] for v in range(n) if deg[v] >= 0]
    if len(centres) == 1:
        return _shape(centres[0])
    a, b = centres
    return min(_shape(a + [_shape(b)]), _shape(b + [_shape(a)]))


def tree_certificate(n: int, edges) -> str:
    """Canonical certificate: minimum rooted shape string over the centres.

    Raises GraphError unless the edges form a tree on 0..n-1.
    """
    edges = list(edges)
    if len(edges) != n - 1 or not Graph(n, edges).is_tree():
        raise GraphError(f"{len(edges)} edges on {n} vertices do not form a tree")
    return _certificate(n, edges)


_FREE_CACHE: dict[int, list[Graph]] = {1: [Graph(1, label="free-tree-1-0")]}


def free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices.

    Each class of size n - 1 gets a leaf at every vertex, the first grown
    tree of each certificate is kept, and the classes are ordered by
    certificate; the cached graphs are immutable, and each call returns a
    new list of them.
    """
    for m in range(max(_FREE_CACHE) + 1, _int_arg("n", n, 1) + 1):
        classes = {}
        for g in _FREE_CACHE[m - 1]:
            edges = g.edges()
            for v in range(m - 1):
                grown = edges + [(v, m - 1)]
                classes.setdefault(_certificate(m, grown), grown)
        _FREE_CACHE[m] = [Graph(m, classes[c], label=f"free-tree-{m}-{i}")
                          for i, c in enumerate(sorted(classes))]
    return list(_FREE_CACHE[n])


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


def _hk_checks(t: Graph, budget: Optional[SearchBudget]):
    """alpha(t) and the hk check of the tree t at each r, both read off one
    rerooting DP: the check gives the report of `verify.is_r_hk(t, r)`."""
    if not t.is_tree():
        raise GraphError(verify._NEED_TREE)
    polys = _star_polys(t)

    def check(r: int):
        rep = verify._hk_report(t, r, tuple(_star_column(polys, t.n, r)))
        if rep.holds:
            return "holds", None
        return "leaf_not_max", (("best_vertex", rep.best_vertex),
                                ("star_sizes", list(rep.star_sizes)))
    return _star_alpha(polys, t.n), check


def _ekr_checks(g: Graph, budget: Optional[SearchBudget]):
    """alpha(g) and the ekr check of g at each r, all searching under one set
    of Aut(g) generators: the report of `verify.is_r_ekr(g, r, budget)`."""
    gens = verify.automorphism_generators(g)

    def check(r: int):
        rep = verify._report(g, r, verify._candidates(g, r), gens, 0, budget)
        if rep.verdict == NOT_EKR:
            return NOT_EKR, (("max_star_size", rep.max_star_size),
                             ("max_intersecting_size", rep.max_intersecting_size),
                             ("witness", [bit_list(m) for m in rep.witness]))
        if rep.verdict == BUDGET_EXCEEDED:
            return BUDGET_EXCEEDED, (("nodes_explored", rep.nodes_explored),)
        return rep.verdict, None
    return max_independent_set_size(g), check


# property -> prepare(g, budget), called once per graph before its first
# check, giving (alpha(g), check) with check(r) -> (verdict, detail); detail
# is None unless the verdict is a finding.  What a preparation holds lives
# only as long as the check of its graph.
_CHECKS = {PROP_HK: _hk_checks, PROP_EKR: _ekr_checks}


def search_catalog(prop: str, graphs: Iterable[Graph], r_max: Optional[int] = None,
                   budget: Optional[SearchBudget] = None,
                   on_finding: Optional[Callable] = None) -> SweepSummary:
    """Check prop on every graph of the catalog at every r up to min(r_max, alpha).

    Each graph is prepared once for all its checks: for "ekr" the generators
    of Aut(G), which every r's search branches on, and for "hk" the star
    polynomials of one rerooting DP, whose coefficient r gives the star sizes
    at r and whose highest power gives alpha.  Each graph counts once as seen
    and once as unique; the certificate (the tree certificate for trees,
    graph6 otherwise) is built only for findings.
    """
    prepare = _CHECKS.get(prop)
    if prepare is None:
        raise GraphError(f"unknown sweep property {prop!r}")
    if r_max is not None:
        _int_arg("r_max", r_max, 1)
    seen = checks = blown = n_max = 0
    findings = []
    for g in graphs:
        seen += 1
        n_max = max(n_max, g.n)
        alpha, check = prepare(g, budget)
        r_hi = alpha if r_max is None else min(r_max, alpha)
        for r in range(1, r_hi + 1):
            checks += 1
            verdict, detail = check(r)
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
    """Sweep every tree on n_min..n_max vertices for counterexamples.

    The checks do not depend on labels, so one tree per isomorphism class,
    `free_trees(n)`, is checked for every admissible set size r.
    labeled_seen is the number of labeled trees those classes stand for, the
    sum of n^(n-2) over the swept sizes (Cayley's formula).
    """
    _int_arg("n_min", n_min, 1)
    _int_arg("n_max", n_max, n_min)
    trees = (t for n in range(n_min, n_max + 1) for t in free_trees(n))
    summary = search_catalog(prop, trees, r_max, budget, on_finding)
    labeled = sum(n ** max(n - 2, 0) for n in range(n_min, n_max + 1))
    return replace(summary, n_max=n_max, labeled_seen=labeled)
