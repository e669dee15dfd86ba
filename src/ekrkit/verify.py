"""Exact maximum-intersecting-family search and EKR-type verdicts.

The search runs over the disjointness graph of the candidate sets: a
pairwise-intersecting family is exactly an independent set there.  Any
family whose members share a common vertex x sits inside the full star at
x, so the overall maximum is max(best star, best empty-common-intersection
family); the branch and bound therefore only ever hunts for families with
empty total intersection, seeded against the best star.  The search for the
nonstar maximum alone is seeded against the largest Hilton-Milner-type
family instead (Hilton, Milner, Quart. J. Math. 18, 1967; on graphs,
Holroyd, Talbot, Discrete Math. 293, 2005): a set A with every candidate
that contains some x outside A and meets A.  Without that start the search
climbs to its optimum only near its end; with it, the nodes whose bound
cannot beat the family are pruned from the first, and the same first maximum
family is found in the same order.

A uniform search at r <= 3 is first tested at its root against a covering
bound (`_root_covered`) on intersecting families of r-sets with empty total
intersection: r^2 M members at r <= 2 (M <= r - 1 there), max(27, 3M + 4) at
r = 3, M the largest number of candidates that contain one pair of vertices.
When that is at most the floor, the search and all of its set-up are
skipped, and the report counts one node, as for a root that the matching
bound prunes.  At r = 3 the pair scan for M runs only when the floor is at
least 27.  The nonstar search's floor sits one below a real nonstar family,
which the bound cannot undercut, so there it fires only where no such
family exists, as at r = 1.

The top two levels of that search use orbital branching (Ostrowski,
Linderoth, Rossi, Smriglio, "Orbital branching", Math. Program. 126, 2011).
An automorphism of the graph maps independent r-sets to independent r-sets
and keeps pairwise intersection, an empty total intersection and the family
size, so the root subproblem is invariant under Aut(G).  Once the subtree of
families containing the root's pick is searched, every family containing
another set of the pick's orbit is the image of one already seen, so the
root excludes the whole orbit instead of the pick alone.  What is left stays
invariant, so each step of the root's exclude chain branches on orbits.
The include child of a root pick S (the families containing S, minus the
orbits already excluded) is invariant under Stab(S), the automorphisms that
map S onto itself, so that child's own exclude chain drops Stab(S)-orbits in
the same way.  Aut(G) comes from `graphs.automorphism_generators` once per
report, or once per graph for all the reports of a catalog sweep
(`treegen.search_catalog`); Stab(S) comes from the same routine with
`setwise=S`, once per search and only when the child reaches its first
branching step, so a child that is pruned first costs no stabiliser.  On a
tree that routine reads both groups off rooted (Aho-Hopcroft-Ullman) codes
instead of running its refinement search.  A chain never lists every orbit:
each exclude step closes only its pick under the chain's generators, which
gives the same orbit whatever generators span the group.  Each pick itself
stays the representative, so the first subtree, where the witness is
usually found, is unchanged.
Deeper nodes branch on single sets: their subproblems are invariant only
under the stabiliser of all the sets picked so far, which would have to be
computed anew for every subtree.  `nodes_explored` counts the nodes of this
symmetry-reduced search.  Per node, a greedy matching runs first and stops
once it proves that the node cannot beat the best family, or once so many
candidates are left unmatched that it cannot; only a node that survives it
absorbs candidates and picks.  A surviving node keeps a degree list: each
allowed candidate's number of allowed disjoint partners.  The root and each
include child count it; the exclude continuation that drops only the pick
takes its parent's list and lowers the pick's partners by one, absorbing
those that reach 0, so the long exclude chains never rescan every candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .families import _star_column, _star_polys, all_independent_sets, enum_independent_rsets
from .graphs import (Graph, GraphError, SpiderSpec, _int_arg, automorphism_generators,
                     bit_list, iter_bits)

DEFAULT_MAX_NODES = 10_000_000

EKR = "ekr"
NOT_EKR = "not_ekr"
STRICTLY_EKR = "strictly_ekr"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = DEFAULT_MAX_NODES

    def __post_init__(self):
        _int_arg("max_nodes", self.max_nodes, 1)


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

def _containment(family: list[int], n: int) -> list[int]:
    """Index mask of the members containing v, for each vertex v < n."""
    contains = [0] * n
    for i, s in enumerate(family):
        bit = 1 << i
        while s:
            low = s & -s
            contains[low.bit_length() - 1] |= bit
            s ^= low
    return contains


def _meeting(contains: list[int], s: int) -> int:
    """Index mask of the members sharing a vertex with s."""
    m = 0
    while s:
        low = s & -s
        m |= contains[low.bit_length() - 1]
        s ^= low
    return m


def _orbit(s: int, gens: list[tuple], index: dict[int, int]) -> int:
    """Index mask of the orbit of set s under the vertex permutations `gens`,
    which must map the sets of `index` ({set: index}) onto themselves: the
    closure of s under the generators.  Each generator is (support, perm)
    and maps only the moved vertices of a set."""
    orbit = 1 << index[s]
    todo = [s]
    while todo:
        x = todo.pop()
        for support, perm in gens:
            moved = x & support
            if moved:
                y = x ^ moved
                for v in iter_bits(moved):
                    y |= 1 << perm[v]
                bit = 1 << index[y]
                if not orbit & bit:
                    orbit |= bit
                    todo.append(y)
    return orbit


def _moving(gens: list[tuple]) -> list[tuple]:
    """(support, perm) of each vertex permutation, support the moved vertices."""
    return [(sum(1 << x for x, y in enumerate(perm) if x != y), perm) for perm in gens]


def _search_empty_common(cands: list[int], meets: list[int], max_nodes: int,
                         floor: int, g: Graph, gens: list[tuple]):
    """Largest pairwise-intersecting subfamily with empty total intersection
    and size > floor; `cands` ascend and `meets` is `_containment(cands, g.n)`.

    The root branches on orbits of candidates under the group that `gens`
    (generators of Aut(g)) spans, which must map the candidate family onto
    itself, and the include child of each root pick on orbits under the
    pick's setwise stabiliser.  Returns (best_size, best_index_mask_or_None,
    nodes, exceeded).  Smaller families are pruned, so a None witness proves
    nothing above the floor exists (when not exceeded).
    """
    k = len(cands)
    full = (1 << k) - 1
    # candidate order: most intersections first (= fewest disjoint partners),
    # ties ascending, as the stable sort keeps the ascending `cands`; every
    # candidate is nonempty, so it meets itself and has k - meets partners.
    # The loops below are `_meeting` and `_containment` written out over each
    # candidate's vertex list, found once for both orders.
    verts = [bit_list(s) for s in cands]
    partners = []
    for vs in verts:
        m = 0
        for v in vs:
            m |= meets[v]
        partners.append(k - m.bit_count())
    order = sorted(range(k), key=partners.__getitem__)
    sets = [cands[i] for i in order]
    contains = [0] * g.n
    for j, i in enumerate(order):
        bit = 1 << j
        for v in verts[i]:
            contains[v] |= bit
    dnb = []
    for i in order:
        m = 0
        for v in verts[i]:
            m |= contains[v]
        dnb.append(full & ~m)

    best = floor
    best_sel = None
    nodes = 0
    exceeded = False
    # generators of each exclude chain that branches on orbits, by chain: -1
    # is the root's, i >= 0 the one below root pick i, filled in when that
    # chain first branches; each exclude step drops the orbit of its pick
    groups = {-1: _moving(gens)}
    index = {s: i for i, s in enumerate(sets)} if gens else None

    # depth first: each node pushes its exclude continuation (the state after
    # absorbing, minus the pick, or on an orbital chain minus the pick's whole
    # orbit) and then its include child, which is popped next; `chain` names
    # the orbital chain a node is on, None where it branches on single sets.
    # `degs` holds, for each allowed candidate, its number of allowed disjoint
    # partners, and -1 elsewhere.  The root and each include child count it
    # afresh, as does an exclude continuation that dropped a whole orbit; one
    # that dropped only the pick `gone` takes its parent's list and updates
    # it in place, which is safe as the include child, popped first, counts
    # its own.
    stack = [(full, -1, 0, 0, -1 if gens else None, None, -1)]
    while stack:
        allowed, common, size, sel, chain, degs, gone = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            exceeded = True
            break
        # the matching bound: each candidate still unmatched when reached, in
        # index order, takes its lowest unmatched later disjoint partner, and
        # the node is pruned once `need` pairs are matched.  Each candidate
        # left unmatched lowers `slack`; past count - 2 * need of them, fewer
        # than `need` pairs remain possible, so the node survives (and the
        # loop never runs out of `free` candidates).  Absorbing first would
        # change neither size + |allowed| nor this matching, as an absorbed
        # candidate has no allowed disjoint partner, and a node pruned here
        # could not raise `best`; so testing the bound first prunes exactly
        # the same nodes.
        count = allowed.bit_count()
        need = size + count - best
        if need <= 0:
            continue
        slack = count - 2 * need
        if slack >= 0:
            free, matched = allowed, 0
            while matched < need:
                low = free & -free
                free ^= low
                nb = dnb[low.bit_length() - 1] & free
                if nb:
                    free ^= nb & -nb
                    matched += 1
                else:
                    slack -= 1
                    if slack < 0:
                        break
            if matched == need:
                continue
        # at a surviving node: absorb the candidates that meet all still
        # allowed (degree 0).  Dropping the pick lowers only its partners'
        # degrees, so after a single drop only they can reach 0.
        absorbed = 0
        if degs is None:
            degs = [-1] * k
            m = allowed
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                d = (dnb[i] & allowed).bit_count()
                if d:
                    degs[i] = d
                else:
                    absorbed |= low
                    common &= sets[i]
        else:
            degs[gone] = -1
            m = dnb[gone] & allowed
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                d = degs[i] - 1
                if d:
                    degs[i] = d
                else:
                    degs[i] = -1
                    absorbed |= low
                    common &= sets[i]
        if absorbed:
            allowed ^= absorbed
            sel |= absorbed
            size += absorbed.bit_count()
        if size and common and any(not allowed & ~contains[x] for x in iter_bits(common)):
            continue  # a core vertex x can no longer be evicted
        if not allowed:
            if size > best and not common:
                best, best_sel = size, sel
            continue
        # the pick: the first candidate with most allowed disjoint partners
        pick = degs.index(max(degs))
        pb = 1 << pick
        if chain is None:
            drop = pb
        else:
            if chain not in groups:  # the stabiliser of root pick `chain`
                groups[chain] = _moving(automorphism_generators(g, setwise=sets[chain]))
            drop = _orbit(sets[pick], groups[chain], index)
        stack.append((allowed & ~drop, common, size, sel, chain,
                      degs if drop == pb else None, pick))
        stack.append((allowed & ~(dnb[pick] | pb), common & sets[pick], size + 1,
                      sel | pb, pick if chain == -1 else None, None, -1))
    witness = None
    if best_sel is not None:
        witness = tuple(sorted(sets[i] for i in iter_bits(best_sel)))
    return best, witness, nodes, exceeded


def _hilton_milner(cands: list[int], meets: list[int]) -> tuple[int, int]:
    """(size, index mask) of the largest Hilton-Milner-type family, (0, 0)
    when there is none: a candidate A with every candidate that contains some
    vertex x not in A and meets A.  Its members pairwise intersect (x or A),
    and its total intersection, a subset of A, is empty when each y in A is
    missed by some member.  Ties go to the first A, then the first x."""
    best, best_sel = 0, 0
    for i, a in enumerate(cands):
        meeting = _meeting(meets, a)
        for x, star in enumerate(meets):
            if a >> x & 1:
                continue
            fam = star & meeting
            size = fam.bit_count() + 1
            if size > best and all(fam & ~meets[y] for y in iter_bits(a)):
                best, best_sel = size, fam | 1 << i
    return best, best_sel


def _root_covered(r: Optional[int], floor: int, meets: list[int]) -> bool:
    """Whether no intersecting family of r-sets with empty total intersection
    is larger than floor, for candidates whose `_containment` is `meets`.

    Let F be such a family and M the largest number of candidates that
    contain one pair of vertices.  Every member meets every other, so every
    member covers F, and no single vertex does: the covering number tau(F)
    is at most r and at least 2.

    r <= 2: take a member A.  Some member C avoids x in A, and every member
    containing x meets C in some y != x, so at most r M members contain x
    and |F| <= r^2 M.  No 1-set contains a pair, and only the 2-set {x, y}
    contains {x, y}, so M <= r - 1.

    r = 3, tau = 3: a set T of fewer than 3 vertices misses some member D,
    and every member containing T meets D, so deg(T) <= 3 max deg(T + d)
    over d in D.  A 3-set lies in at most one member, so |F| <= 27.

    r = 3, tau = 2, cover {x, y}: at most M members contain both.  Let X be
    the members with x but not y, Y those with y but not x; both are
    nonempty, else F is a star.  The pairs X' = {A - x} and Y' = {B - y}
    cross-intersect.  A member of X whose pair meets a given pair P contains
    x and a vertex of P, so at most 2M of them do; likewise for Y.  If Y' has
    two disjoint pairs, every pair of X' meets both, so |X| <= 4, and
    |Y| <= 2M.  If Y' is a triangle, X' lies in it too and |X| + |Y| <= 6.
    Else Y' is a star at a with m pairs: m = 1 gives |X| <= 2M, |Y| = 1;
    m = 2 gives |X| <= M + 1 (pairs through a, or the two other ends),
    |Y| = 2; m >= 3 gives |X| <= M and |Y| <= M, all through a.  With
    M >= 1, |F| <= M + 2M + 4 = 3M + 4.
    """
    if r is None or r > 3:
        return False
    if r <= 2:
        return r * r * (r - 1) <= floor
    cap = (floor - 4) // 3  # 3M + 4 <= floor
    return floor >= 27 and all((a & b).bit_count() <= cap
                               for i, a in enumerate(meets) for b in meets[i + 1:])


def _candidates(g: Graph, r: Optional[int]) -> list[int]:
    """The independent r-sets of g; every nonempty independent set if r is None."""
    if r is None:
        return all_independent_sets(g)
    r = _int_arg("r", r, 1)
    cands = enum_independent_rsets(g, r) if r <= g.n else []
    if not cands:
        raise GraphError(f"no independent {r}-sets: r exceeds the independence number")
    return cands


def _report(g: Graph, r: Optional[int], cands: list[int], gens: list[tuple],
            floor_offset: Optional[int], budget: Optional[SearchBudget]) -> EkrReport:
    """The one report builder: a search for an empty-common family above a floor,
    branching on orbits under the automorphisms of g that `gens` generate.

    floor_offset 0 or 1 puts the floor at (best star - offset), so a family
    that ties the star counts only for the strict question; the answer is the
    larger of that family and the best star, which certifies it when nothing
    is found.  floor_offset None asks for the nonstar maximum, whose answer
    is the family found alone.  Its floor sits one below the largest
    Hilton-Milner-type family, which is a nonstar family itself: pruning
    against a higher best cuts only subtrees that cannot reach the maximum,
    so the search finds the same first maximum family in fewer nodes.  A
    budget stop before the search beats that family reports it instead; with
    no such family (as at r = 1) the floor is 0.  The search returns its
    floor when it finds nothing, so the verdict follows from `found` against
    the best star either way.
    """
    budget = budget or SearchBudget()
    meets = _containment(cands, g.n)
    stars = [m.bit_count() for m in meets]
    ss = max(stars)
    sv = stars.index(ss)
    if floor_offset is None:
        seed, seed_sel = _hilton_milner(cands, meets)
        floor = max(0, seed - 1)
    else:
        floor = ss - floor_offset
    if _root_covered(r, floor, meets):  # pruned at the root, as by the matching bound
        found, witness, nodes, exceeded = floor, None, 1, False
    else:
        found, witness, nodes, exceeded = _search_empty_common(cands, meets, budget.max_nodes,
                                                               floor, g, gens)
    if floor_offset is None and witness is None:  # stopped at the floor, or no family
        found = seed
        witness = tuple(sorted(cands[i] for i in iter_bits(seed_sel)))
    if exceeded:
        verdict = BUDGET_EXCEEDED
    elif found > ss:
        verdict = NOT_EKR
    elif found == ss:
        verdict = EKR
    else:
        verdict = STRICTLY_EKR
    if floor_offset is not None:  # the best star is a family too
        found = max(found, ss)
        witness = witness or tuple(cands[i] for i in iter_bits(meets[sv]))
    return EkrReport(r, verdict, sv, ss, found, witness or (), nodes)


def is_r_ekr(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Exact maximum intersecting family of independent r-sets, with witness;
    verdict ekr iff some star attains it."""
    return _report(g, r, _candidates(g, r), automorphism_generators(g), 0, budget)


def is_strictly_r_ekr(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Verdict strictly_ekr iff every maximum family is a full star.

    A maximum family with a common vertex x must equal the full star at x,
    so strictness is exactly: no maximum-size family has empty intersection.
    """
    return _report(g, r, _candidates(g, r), automorphism_generators(g), 1, budget)


def max_nonstar_intersecting(g: Graph, r: int, budget: Optional[SearchBudget] = None) -> EkrReport:
    """Exact maximum over intersecting families with empty total intersection."""
    return _report(g, r, _candidates(g, r), automorphism_generators(g), None, budget)


def nonuniform_ekr(g: Graph, budget: Optional[SearchBudget] = None) -> EkrReport:
    """EKR verdict over ALL nonempty independent sets, any sizes mixed."""
    return _report(g, None, _candidates(g, None), automorphism_generators(g), 0,
                   budget)


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


def _star_sizes(t: Graph, r: int) -> tuple:
    """s_r(v) for every vertex of the forest t; GraphError unless r >= 1 and some
    independent r-set exists."""
    r = _int_arg("r", r, 1)
    sizes = tuple(_star_column(_star_polys(t), t.n, r))
    if not max(sizes):
        raise GraphError(f"no independent {r}-sets: r exceeds the independence number")
    return sizes


_NEED_TREE = "leaf-maximum verdicts need a tree"


def is_r_hk(t: Graph, r: int) -> HkReport:
    """Does some leaf of the tree maximise s_r?"""
    if t.edge_count() != t.n - 1:
        raise GraphError(_NEED_TREE)
    try:
        sizes = _star_sizes(t, r)  # with n - 1 edges, the DP's forest check means a tree
    except GraphError:
        if not t.is_tree():
            raise GraphError(_NEED_TREE) from None
        raise
    return _hk_report(t, r, sizes)


def _hk_report(t: Graph, r: int, sizes: tuple) -> HkReport:
    """The report on the tree t whose star sizes at r are `sizes`: the best
    vertex is the first leaf of maximum size, else the first vertex of it."""
    top = max(sizes)
    leaves = [v for v, d in enumerate(t.degrees()) if d <= 1]
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
    later legs' leaves.  Raises GraphError unless r >= 1 and some
    independent r-set exists, as is_r_hk does.
    """
    sizes = _star_sizes(spec.realize(), r)
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
