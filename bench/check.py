"""Output checks that do not call `ekrkit.verify`.

Everything here recomputes what it needs from the graph's edge list with
plain bitmask code, so a wrong answer from the search, the tree DP or the
bounds lab cannot also be a wrong expectation.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

# free trees on n = 1..11 vertices (OEIS A000055) and labeled trees n^(n-2)
FREE_TREES_OEIS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235)
LABELED_TREES_2_TO_8 = sum(n ** (n - 2) for n in range(2, 9))  # 280392
HK_SWEEP_CHECKS = 176
GRID_ROWS = 368316
GRID_SHA256 = "afbd96a35e13b17a3154681e7dc805ad87ade37b41f84c7e2e83a942203d3763"


def adjacency(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def independent_sets(adj: list[int]) -> list[int]:
    """Every nonempty independent set, by plain include/exclude branching."""
    out = []

    def rec(avail: int, acc: int):
        if acc:
            out.append(acc)
        while avail:
            low = avail & -avail
            avail ^= low
            rec(avail & ~adj[low.bit_length() - 1], acc | low)

    rec((1 << len(adj)) - 1, 0)
    return out


class StarTable:
    """Star sizes s_r(v) and the r-sets themselves, for one graph."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj = adjacency(n, edges)
        self.by_size: dict[int, list[int]] = {}
        for s in independent_sets(self.adj):
            self.by_size.setdefault(s.bit_count(), []).append(s)
        self.alpha = max(self.by_size, default=0)

    def sizes(self, r: int) -> list[int]:
        out = [0] * self.n
        for s in self.by_size.get(r, ()):
            m = s
            while m:
                low = m & -m
                out[low.bit_length() - 1] += 1
                m ^= low
        return out

    def rsets(self, r):
        if r is None:
            return [s for size in sorted(self.by_size) for s in self.by_size[size]]
        return self.by_size.get(r, [])

    def is_independent(self, s: int) -> bool:
        m = s
        while m:
            low = m & -m
            if self.adj[low.bit_length() - 1] & s:
                return False
            m ^= low
        return True


def common_vertices(family) -> int:
    common = -1
    for s in family:
        common &= s
    return common


def family_problems(table: StarTable, r, family, size: int) -> list[str]:
    """A witness must be `size` distinct independent r-sets that pairwise meet."""
    out = []
    if len(family) != size or len(set(family)) != len(family):
        out.append(f"witness has {len(family)} members ({len(set(family))} distinct), "
                   f"reported size {size}")
    for s in family:
        if s <= 0 or s >> table.n or not table.is_independent(s) or (
                r is not None and s.bit_count() != r):
            out.append(f"witness member {bin(s)} is not an independent {r}-set")
            break
    members = list(family)
    for i, a in enumerate(members):
        if any(not a & b for b in members[i + 1:]):
            out.append("witness members are not pairwise intersecting")
            break
    return out


def verdict_problems(table: StarTable, r, kind: str, rep) -> list[str]:
    """Check one report of `is_r_ekr` ("ekr"), `is_strictly_r_ekr` ("strict"),
    `max_nonstar_intersecting` ("nonstar") or `nonuniform_ekr` ("nonuniform")."""
    if rep.verdict == "budget_exceeded":
        return ["search budget exceeded"]
    if r is None:
        counts = [0] * table.n
        for s in table.rsets(None):
            for v in range(table.n):
                counts[v] += s >> v & 1
    else:
        counts = table.sizes(r)
    top = max(counts)
    out = []
    if (rep.max_star_size, rep.max_star_vertex) != (top, counts.index(top)):
        out.append(f"max star {rep.max_star_vertex}:{rep.max_star_size}, "
                   f"expected {counts.index(top)}:{top}")
    out += family_problems(table, r, rep.witness, rep.max_intersecting_size)
    v = rep.max_star_vertex
    star = tuple(sorted(s for s in table.rsets(r) if s >> v & 1))
    nonstar = common_vertices(rep.witness) == 0
    size = rep.max_intersecting_size
    if kind == "nonstar":
        if rep.witness and not nonstar:
            out.append("nonstar witness has a common vertex")
        want = "not_ekr" if size > top else "ekr" if size == top else "strictly_ekr"
        if rep.verdict != want:
            out.append(f"nonstar verdict {rep.verdict} for size {size} vs star {top}")
    elif rep.verdict == "not_ekr":
        if not nonstar or size <= top:
            out.append("not_ekr witness is not a larger family without common vertex")
    elif kind == "strict" and rep.verdict == "ekr":
        # strictness fails: the witness is a star-sized family without common vertex
        if not nonstar or size != top:
            out.append("non-strict witness is not a star-sized family without common vertex")
    elif rep.verdict == ("strictly_ekr" if kind == "strict" else "ekr"):
        if tuple(sorted(rep.witness)) != star:
            out.append(f"{rep.verdict} witness is not the full star at {v}")
    else:
        out.append(f"unexpected verdict {rep.verdict!r} from {kind}")
    return out


def agreement_problems(ekr, strict, nonstar) -> list[str]:
    """The three verdicts on one instance must tell the same story."""
    star, best = ekr.max_star_size, nonstar.max_intersecting_size
    want_ekr = "ekr" if best <= star else "not_ekr"
    want_strict = "strictly_ekr" if best < star else "ekr" if best == star else "not_ekr"
    out = []
    if ekr.verdict != want_ekr or strict.verdict != want_strict:
        out.append(f"verdicts {ekr.verdict}/{strict.verdict} disagree with nonstar size "
                   f"{best} vs star {star}")
    if {ekr.max_intersecting_size, strict.max_intersecting_size} != {max(star, best)}:
        out.append("maximum sizes differ between is_r_ekr and is_strictly_r_ekr")
    if strict.max_star_size != star or nonstar.max_star_size != star:
        out.append("max star sizes differ between the three searches")
    return out


def edgeless_problems(n: int, r: int, ekr, nonstar) -> list[str]:
    """On n isolated points: star C(n-1,r-1), Hilton-Milner C(n-1,r-1)-C(n-r-1,r-1)+1."""
    star = math.comb(n - 1, r - 1)
    hm = star - math.comb(n - r - 1, r - 1) + 1
    if (ekr.max_intersecting_size, nonstar.max_intersecting_size) != (star, hm):
        return [f"edgeless sizes {ekr.max_intersecting_size}/{nonstar.max_intersecting_size},"
                f" expected C(n-1,r-1)={star} and hm_bound={hm}"]
    return []


def hk_problems(table: StarTable, r: int, rep) -> list[str]:
    sizes = table.sizes(r)
    top = max(sizes)
    leaves = [v for v in range(table.n) if table.adj[v].bit_count() <= 1]
    out = []
    if tuple(rep.star_sizes) != tuple(sizes):
        out.append(f"star sizes differ at r={r}")
    holds = any(sizes[v] == top for v in leaves)
    if rep.holds != holds or sizes[rep.best_vertex] != top:
        out.append(f"hk verdict holds={rep.holds} best={rep.best_vertex}, expected holds={holds}")
    if not holds:
        out.append(f"spider without a maximum leaf star at r={r}")
    return out


def theorem_applies(theorem: str, n: int, r: int, s: int = 0) -> bool:
    """T5: r <= sqrt(n ln 2) - (ln 2)/2; T6: 0 < s < r/2 and the same with
    c = 2 - 2s/r in place of 2; both with a 1e-9 margin, in 40-digit decimal."""
    if theorem == "T6" and not 0 < 2 * s < r:
        return False
    c = Fraction(2) if theorem == "T5" else 2 - Fraction(2 * s, r)
    with localcontext() as ctx:
        ctx.prec = 40
        ln_c = Decimal(c.numerator).ln() - Decimal(c.denominator).ln()
        return r <= (n * ln_c).sqrt() - ln_c / 2 - Decimal("1e-9")


def peel_problems(n: int, edges, threshold: int, rep) -> list[str]:
    """Replay peeling: always the max-degree vertex (lowest index on ties)."""
    adj = adjacency(n, edges)
    alive = (1 << n) - 1
    removed = []
    while True:
        best_v, best_d = -1, threshold - 1
        for v in range(n):
            if alive >> v & 1:
                d = (adj[v] & alive).bit_count()
                if d > best_d:
                    best_v, best_d = v, d
        if best_v < 0:
            break
        removed.append((best_v, best_d))
        alive ^= 1 << best_v
    kept = tuple(v for v in range(n) if alive >> v & 1)
    if tuple(rep.removed) != tuple(removed) or tuple(rep.kept) != kept:
        return [f"peel at threshold {threshold} removed {len(rep.removed)}, expected {len(removed)}"]
    if rep.residual.n != len(kept) or rep.residual.edge_count() != sum(
            (adj[v] & alive).bit_count() for v in kept) // 2:
        return ["peel residual graph does not match the kept vertices"]
    return []
