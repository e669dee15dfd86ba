"""Exact maximum-intersecting-family search and EKR-type verdicts.

The search runs over the disjointness graph of the candidate sets: a
pairwise-intersecting family is exactly an independent set there.  Any
family whose members share a common vertex x sits inside the full star at
x, so the overall maximum is max(best star, best empty-common-intersection
family); the branch and bound therefore only ever hunts for families with
empty total intersection, seeded against the best star.

The root of that search uses orbital branching (Ostrowski, Linderoth, Rossi,
Smriglio, "Orbital branching", Math. Program. 126, 2011).  An automorphism
of the graph maps independent r-sets to independent r-sets and keeps
pairwise intersection, an empty total intersection and the family size, so
the root subproblem is invariant under Aut(G).  Once the subtree of families
containing the root's pick is searched, every family containing another set
of the pick's orbit is the image of one already seen, so the root excludes
the whole orbit instead of the pick alone.  What is left stays invariant, so
each step of the root's exclude chain branches on orbits.  The orbits are
computed once per search, from `graphs.automorphism_generators`, before the
search starts.  The pick itself stays the representative, so the first root
subtree, where the witness is usually found, is unchanged.  Below the root
the search branches on single sets, because there the subproblem is
invariant only under the stabiliser of the sets picked so far, which would
have to be computed anew for every subtree.  `nodes_explored` counts the
nodes of this symmetry-reduced search.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from .families import FamilyQuery, enum_independent_rsets, star_vectors_tree_dp
from .graphs import (Graph, GraphError, SpiderSpec, automorphism_generators, bit_list,
                     find_root, iter_bits)

DEFAULT_MAX_NODES = 10_000_000
BUDGET_ENV = "EKRKIT_MAX_NODES"

EKR = "ekr"
NOT_EKR = "not_ekr"
STRICTLY_EKR = "strictly_ekr"
BUDGET_EXCEEDED = "budget_exceeded"


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        if self.max_nodes < 1:
            raise GraphError(f"budget must allow at least one node, got {self.max_nodes}")


def default_budget() -> SearchBudget:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return SearchBudget()
    try:
        return SearchBudget(int(raw))
    except ValueError:
        raise GraphError(f"{BUDGET_ENV} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class EkrReport:
    r: Optional[int]
    verdict: str
    max_star_vertex: int
    max_star_size: int
    max_intersecting_size: int
    witness: tuple  # member masks, ascending
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "verdict": self.verdict,
            "max_star_vertex": self.max_star_vertex,
            "max_star_size": self.max_star_size,
            "max_intersecting_size": self.max_intersecting_size,
            "witness": [bit_list(m) for m in self.witness],
            "nodes_explored": self.nodes_explored,
        }


@dataclass(frozen=True)
class StarCheck:
    center: Optional[int]  # smallest common vertex, None when not a star
    empty_family: bool


def star_center(family: Iterable[int]) -> StarCheck:
    """Smallest vertex common to every member, if any."""
    common = -1
    seen_any = False
    for m in family:
        seen_any = True
        common &= m
    if not seen_any:
        return StarCheck(None, True)
    if common == 0:
        return StarCheck(None, False)
    return StarCheck((common & -common).bit_length() - 1, False)


def is_intersecting(family: Iterable[int]) -> bool:
    members = list(family)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not a & b:
                return False
    return True


# -- core branch and bound ----------------------------------------------

def _containment(family: list[int]) -> dict[int, int]:
    """{v: index mask of the members containing v} over the family's vertices."""
    contains = {}
    for i, s in enumerate(family):
        bit = 1 << i
        for v in iter_bits(s):
            contains[v] = contains.get(v, 0) | bit
    return contains


def _meeting(contains: dict[int, int], s: int) -> int:
    """Index mask of the members sharing a vertex with s."""
    m = 0
    for v in iter_bits(s):
        m |= contains[v]
    return m


def _orbit_masks(sets: list[int], gens: list[tuple]) -> list[int]:
    """Index mask of each set's orbit under the vertex permutations `gens`,
    which must map the list of sets onto itself."""
    index = {s: i for i, s in enumerate(sets)}
    root = list(range(len(sets)))
    for perm in gens:
        img = [1 << x for x in perm]
        for i, s in enumerate(sets):
            t = 0
            for v in iter_bits(s):
                t |= img[v]
            root[find_root(root, i)] = find_root(root, index[t])
    masks = [0] * len(sets)
    for i in range(len(sets)):
        masks[find_root(root, i)] |= 1 << i
    return [masks[find_root(root, i)] for i in range(len(sets))]


def _search_empty_common(cands: list[int], max_nodes: int, floor: int, g: Graph):
    """Largest pairwise-intersecting subfamily with empty total intersection
    and size > floor.

    The root branches on orbits of candidates under Aut(g), which must map
    the candidate family onto itself.  Returns (best_size,
    best_index_mask_or_None, nodes, exceeded).  Smaller families are pruned,
    so a None witness proves nothing above the floor exists (when not
    exceeded).
    """
    k = len(cands)
    if k == 0:
        return floor, None, 0, False
    full = (1 << k) - 1
    # candidate order: most intersections first (= fewest disjoint partners);
    # every candidate is nonempty, so it meets itself and k - meets others
    meets = _containment(cands)
    order = sorted(range(k), key=lambda i: (k - _meeting(meets, cands[i]).bit_count(),
                                            cands[i]))
    sets = [cands[i] for i in order]
    contains = _containment(sets)
    dnb = [full & ~_meeting(contains, s) for s in sets]

    best = floor
    best_sel = None
    nodes = 0
    orbits = _orbit_masks(sets, automorphism_generators(g))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * k + 1000))

    def matching(allowed: int) -> int:
        m = 0
        avail = allowed
        while avail:
            low = avail & -avail
            i = low.bit_length() - 1
            avail ^= low
            nb = dnb[i] & avail
            if nb:
                avail ^= nb & -nb
                m += 1
        return m

    def rec(allowed: int, common: int, size: int, sel: int, root: bool):
        nonlocal best, best_sel, nodes
        while True:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded
            # absorb candidates intersecting everything still allowed
            m = allowed
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                if not dnb[i] & allowed:
                    allowed ^= low
                    sel |= low
                    size += 1
                    common &= sets[i]
            if size and common:
                for x in iter_bits(common):
                    if not allowed & ~contains[x]:
                        return  # x can no longer be evicted from the core
            if not allowed:
                if size > best and (common == 0 or size == 0):
                    best, best_sel = size, sel
                return
            cap = size + allowed.bit_count()
            if cap <= best or cap - matching(allowed) <= best:
                return
            pick, deg = -1, -1
            m = allowed
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                d = (dnb[i] & allowed).bit_count()
                if d > deg:
                    pick, deg = i, d
            pb = 1 << pick
            rec(allowed & ~(dnb[pick] | pb), common & sets[pick], size + 1, sel | pb, False)
            # tail-iterate the exclude branch; the root drops pick's whole orbit
            if root:
                allowed &= ~orbits[pick]
            else:
                allowed ^= pb

    exceeded = False
    try:
        rec(full, -1, 0, 0, True)
    except BudgetExceeded:
        exceeded = True
    witness = None
    if best_sel is not None:
        witness = tuple(sorted(sets[i] for i in iter_bits(best_sel)))
    return best, witness, nodes, exceeded


def _candidates(g: Graph, r: int) -> list[int]:
    if not isinstance(r, int) or r < 1:
        raise GraphError(f"set size must satisfy r >= 1, got {r!r}")
    cands = list(enum_independent_rsets(FamilyQuery(graph=g, r=r)))
    if not cands:
        raise GraphError(f"no independent {r}-sets: r exceeds the independence number")
    return cands


def _star_tally(g: Graph, cands: list[int]) -> tuple[int, int]:
    count = [0] * g.n
    for s in cands:
        for v in iter_bits(s):
            count[v] += 1
    top = max(count)
    return count.index(top), top


def _star_family(cands: list[int], v: int) -> tuple:
    return tuple(s for s in cands if s >> v & 1)


def _report(g: Graph, r: Optional[int], cands: list[int], floor_offset: int,
            budget: Optional[SearchBudget]) -> EkrReport:
    budget = budget or default_budget()
    sv, ss = _star_tally(g, cands)
    found, witness, nodes, exceeded = _search_empty_common(
        cands, budget.max_nodes, ss - floor_offset, g)
    if exceeded:
        size = max(ss, found if witness is not None else ss)
        wit = witness if witness is not None else _star_family(cands, sv)
        return EkrReport(r, BUDGET_EXCEEDED, sv, ss, size, wit, nodes)
    if witness is None:
        verdict = STRICTLY_EKR if floor_offset else EKR
        return EkrReport(r, verdict, sv, ss, ss, _star_family(cands, sv), nodes)
    if found > ss:
        return EkrReport(r, NOT_EKR, sv, ss, found, witness, nodes)
    # found == ss, only reachable when the floor allowed equality
    return EkrReport(r, EKR, sv, ss, ss, witness, nodes)


def is_r_ekr(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Verdict ekr iff some star attains the maximum intersecting size."""
    return _report(g, r, _candidates(g, r), 0, budget)


def max_intersecting_family(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Exact maximum intersecting family of independent r-sets, with witness."""
    return is_r_ekr(g, r, budget)


def is_strictly_r_ekr(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Verdict strictly_ekr iff every maximum family is a full star.

    A maximum family with a common vertex x must equal the full star at x,
    so strictness is exactly: no maximum-size family has empty intersection.
    """
    return _report(g, r, _candidates(g, r), 1, budget)


def max_nonstar_intersecting(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Exact maximum over intersecting families with empty total intersection."""
    budget = budget or default_budget()
    cands = _candidates(g, r)
    sv, ss = _star_tally(g, cands)
    found, witness, nodes, exceeded = _search_empty_common(cands, budget.max_nodes, 0, g)
    if exceeded:
        wit = witness if witness is not None else ()
        return EkrReport(r, BUDGET_EXCEEDED, sv, ss, found if witness is not None else 0,
                         wit, nodes)
    size = found if witness is not None else 0
    wit = witness if witness is not None else ()
    if size > ss:
        verdict = NOT_EKR
    elif size == ss:
        verdict = EKR
    else:
        verdict = STRICTLY_EKR
    return EkrReport(r, verdict, sv, ss, size, wit, nodes)


def nonuniform_ekr(g: Graph, budget: Optional[SearchBudget] = None) -> EkrReport:
    """EKR verdict over ALL nonempty independent sets, any sizes mixed."""
    from .families import all_independent_sets

    cands = all_independent_sets(g)
    if not cands:
        raise GraphError("graph has no nonempty independent sets")
    return _report(g, None, cands, 0, budget)


# -- star-placement verdicts ---------------------------------------------

@dataclass(frozen=True)
class HkReport:
    r: int
    holds: bool            # true iff a leaf attains the max star size
    best_vertex: int       # max star size, ties broken toward leaves then index
    best_is_leaf: bool
    star_sizes: tuple

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "holds": self.holds,
            "best_vertex": self.best_vertex,
            "best_is_leaf": self.best_is_leaf,
            "star_sizes": list(self.star_sizes),
        }


def is_r_hk(t: Graph, r: int) -> HkReport:
    """Does some leaf of the tree maximise s_r?"""
    if not t.is_tree():
        raise GraphError("leaf-maximum verdicts need a tree")
    if not isinstance(r, int) or r < 1:
        raise GraphError(f"set size must satisfy r >= 1, got {r!r}")
    sizes = tuple(vec[r] for vec in star_vectors_tree_dp(t, r))
    top = max(sizes)
    if top == 0:
        raise GraphError(f"no independent {r}-sets: r exceeds the independence number")
    leaves = [v for v in range(t.n) if t.degree(v) <= 1]
    holds = any(sizes[v] == top for v in leaves)
    if holds:
        best = next(v for v in leaves if sizes[v] == top)
    else:
        best = sizes.index(top)
    return HkReport(r, holds, best, holds, sizes)


@dataclass(frozen=True)
class SpiderOrderReport:
    r: int
    legs: tuple
    order: tuple
    ok: bool
    violations: tuple  # human-readable tuples (rule, detail)
    star_sizes: tuple

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "legs": list(self.legs),
            "order": list(self.order),
            "ok": self.ok,
            "violations": [list(v) for v in self.violations],
            "star_sizes": list(self.star_sizes),
        }


def spider_order_check(spec: SpiderSpec, r: int) -> SpiderOrderReport:
    """Check the centre/inner/leaf star-size comparisons on a spider.

    With legs taken in canonical order: the centre never beats a leaf, no
    vertex on a leg beats that leg's leaf, and earlier legs' leaves dominate
    later legs' leaves.
    """
    g = spec.realize()
    sizes = tuple(vec[r] for vec in star_vectors_tree_dp(g, r))
    violations = []
    ordered = list(spec.order)
    leaf = [spec.leaf_vertex(i) for i in range(spec.k)]
    for pos, i in enumerate(ordered):
        if sizes[0] > sizes[leaf[i]]:
            violations.append(("centre<=leaf", f"s({0})={sizes[0]} > s(v_{pos + 1})={sizes[leaf[i]]}"))
        for u in spec.leg_path(i):
            if sizes[u] > sizes[leaf[i]]:
                violations.append(
                    ("path<=leaf", f"s({u})={sizes[u]} > s(v_{pos + 1})={sizes[leaf[i]]}"))
    for a in range(spec.k):
        for b in range(a + 1, spec.k):
            va, vb = leaf[ordered[a]], leaf[ordered[b]]
            if sizes[vb] > sizes[va]:
                violations.append(
                    ("later<=earlier", f"s(v_{b + 1})={sizes[vb]} > s(v_{a + 1})={sizes[va]}"))
    return SpiderOrderReport(r, spec.legs, spec.order, not violations,
                             tuple(violations), sizes)
