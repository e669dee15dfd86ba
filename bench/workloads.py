"""The benchmark's three workloads: inputs built from a seed, operations on the
public API of ekrkit, and the check each operation's output must pass.

verdict  few deep branch-and-bound searches (symmetric, asymmetric, random)
sweep    exhaustive tree sweeps: many tree certificates, tree DPs, tiny searches
grid     the bounds lab: exact inequality grids through the CLI, thresholds, peeling

Why each input is there is written in README.md next to this file.
"""
from __future__ import annotations

import functools
import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

import check

# (generator spec, r): symmetric cases where orbital branching must cut nodes,
# the asymmetric spider where it can only add overhead, and not_ekr controls
VERDICT_INSTANCES = (
    ("empty:9", 3), ("empty:10", 3), ("spider:3,3,3,3", 4), ("cycle:12", 4),
    ("kpartite:3,3,3", 2),
    ("empty:11", 3), ("spider:4,4,4", 4),
    ("spider:1,3,4,5", 5),
    ("kpartite:3,3", 2), ("spider:3,3,3,3", 5), ("spider:2,3,4", 5),
)
NONUNIFORM_INSTANCES = ("empty:6", "path:7")
RANDOM_GRAPHS = 8          # G(n, m) conditioned on alpha, so every seed costs alike
RANDOM_N, RANDOM_M, RANDOM_ALPHA, RANDOM_R = 13, 18, 6, 4

SPIDER_N_MAX = 14          # is_r_hk on every spider with n <= 14, every r <= alpha
CATALOG_N_MAX = 11         # search_catalog over all free trees with n <= 11, r <= 3
CATALOG_R_MAX = 3
CATALOG_FINDINGS = {4: 1, 5: 1, 6: 4, 7: 7, 8: 4}   # not_ekr trees per n at r <= 3

BOUNDS_QUERIES = 20        # seeded n values for T5/T6 rmax and hypothesis queries
PEEL_GRAPHS, PEEL_N, PEEL_M = 20, 120, 180


@dataclass
class Op:
    """One timed call into ekrkit and the check of what it returned."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # exact figures to record from the output, e.g. verdict and node count
    record: Callable[[object], dict]


def build(name: str, seed: int, out_dir: str) -> list[Op]:
    import ekrkit
    by_name = {"verdict": _verdict, "sweep": _sweep, "grid": _grid}
    return by_name[name](ekrkit, random.Random(seed), out_dir)


def _star_tables():
    """Expected star sizes per graph, computed on first use outside the timed calls."""
    return functools.cache(lambda g: check.StarTable(g.n, g.edges()))


# -- verdict ----------------------------------------------------------------

def _alpha(adj: list[int], avail: int) -> int:
    if not avail:
        return 0
    low = avail & -avail
    v = low.bit_length() - 1
    rest = avail ^ low
    if not adj[v] & rest:
        return 1 + _alpha(adj, rest)
    return max(_alpha(adj, rest), 1 + _alpha(adj, rest & ~adj[v]))


def _random_graphs(ek, rng: random.Random) -> list:
    pairs = [(u, v) for u in range(RANDOM_N) for v in range(u + 1, RANDOM_N)]
    out = []
    while len(out) < RANDOM_GRAPHS:
        edges = sorted(rng.sample(pairs, RANDOM_M))
        if _alpha(check.adjacency(RANDOM_N, edges), (1 << RANDOM_N) - 1) == RANDOM_ALPHA:
            out.append(ek.Graph(RANDOM_N, edges, label=f"gnm:{RANDOM_N},{RANDOM_M}#{len(out)}"))
    return out


def _verdict(ek, rng: random.Random, out_dir: str) -> list[Op]:
    cases = [(ek.generate(spec), r) for spec, r in VERDICT_INSTANCES]
    cases += [(g, RANDOM_R) for g in _random_graphs(ek, rng)]
    tables = _star_tables()
    last = {}
    searches = (("ekr", ek.is_r_ekr), ("strict", ek.is_strictly_r_ekr),
                ("nonstar", ek.max_nonstar_intersecting))

    def record(rep):
        return {"verdict": rep.verdict, "max_intersecting_size": rep.max_intersecting_size,
                "nodes_explored": rep.nodes_explored}

    def checker(g, r, kind):
        def run_check(rep):
            problems = check.verdict_problems(tables(g), r, kind, rep)
            last[g, r, kind] = rep
            if kind == "nonstar" and (g, r, "ekr") in last and (g, r, "strict") in last:
                problems += check.agreement_problems(last[g, r, "ekr"], last[g, r, "strict"], rep)
                if not g.edges():
                    problems += check.edgeless_problems(g.n, r, last[g, r, "ekr"], rep)
            return problems
        return run_check

    ops = []
    for g, r in cases:
        for kind, fn in searches:
            ops.append(Op(f"{g.label} r={r} {kind}", lambda fn=fn, g=g, r=r: fn(g, r),
                          checker(g, r, kind), record))
    for spec in NONUNIFORM_INSTANCES:
        g = ek.generate(spec)
        ops.append(Op(f"{spec} nonuniform", lambda g=g: ek.nonuniform_ekr(g),
                      checker(g, None, "nonuniform"), record))
    return ops


# -- sweep ------------------------------------------------------------------

def _partitions(total: int, parts_min: int, cap: int):
    """Nonincreasing tuples of positive parts summing to total."""
    if total == 0:
        if parts_min <= 0:
            yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in _partitions(total - first, parts_min - 1, first):
            yield (first,) + rest


def _spider_alpha(legs) -> int:
    return max(sum((l + 1) // 2 for l in legs), 1 + sum(l // 2 for l in legs))


def _sweep(ek, rng: random.Random, out_dir: str) -> list[Op]:
    from ekrkit import treegen

    tables = _star_tables()
    ops = [Op("search_trees hk n<=8 r<=4",
              lambda: ek.search_trees(treegen.PROP_HK, 8, r_max=4), _check_labeled_sweep,
              lambda s: {"labeled_seen": s.labeled_seen, "unique_graphs": s.unique_graphs,
                         "checks": s.checks})]

    for n in range(4, SPIDER_N_MAX + 1):
        jobs = []
        for legs in _partitions(n - 1, 3, n - 1):
            g = ek.generate("spider:" + ",".join(map(str, legs)))
            jobs += [(g, r) for r in range(1, _spider_alpha(legs) + 1)]
        rng.shuffle(jobs)

        def run_hk(jobs=jobs):
            return [ek.is_r_hk(g, r) for g, r in jobs]

        def check_hk(reps, jobs=jobs):
            return [p for (g, r), rep in zip(jobs, reps)
                    for p in check.hk_problems(tables(g), r, rep)]

        ops.append(Op(f"is_r_hk spiders n={n}", run_hk, check_hk,
                      lambda reps: {"checks": len(reps)}))

    for n in range(2, CATALOG_N_MAX + 1):
        trees = ek.free_trees(n)
        if len(trees) != check.FREE_TREES_OEIS[n - 1] or not all(t.is_tree() for t in trees):
            raise RuntimeError(f"free_trees({n}) gave {len(trees)} graphs, "
                               f"expected {check.FREE_TREES_OEIS[n - 1]} trees")
        rng.shuffle(trees)
        by_g6 = {ek.emit_graph6(t): t for t in trees}

        def run_catalog(trees=trees):
            return ek.search_catalog("ekr", trees, r_max=CATALOG_R_MAX)

        def check_catalog(s, n=n, trees=trees, by_g6=by_g6):
            want = sum(min(CATALOG_R_MAX, tables(t).alpha) for t in trees)
            problems = []
            if (s.checks, s.budget_exceeded) != (want, 0):
                problems.append(f"catalog n={n}: {s.checks} checks, "
                                f"{s.budget_exceeded} over budget; expected {want}, 0")
            if len(s.findings) != CATALOG_FINDINGS.get(n, 0):
                problems.append(f"catalog n={n}: {len(s.findings)} findings, "
                                f"expected {CATALOG_FINDINGS.get(n, 0)}")
            for f in s.findings:
                table = tables(by_g6[f.graph6])
                detail = dict(f.detail)
                witness = [sum(1 << v for v in m) for m in detail["witness"]]
                problems += check.family_problems(table, f.r, witness,
                                                  detail["max_intersecting_size"])
                if (f.verdict != "not_ekr" or check.common_vertices(witness) != 0
                        or detail["max_star_size"] != max(table.sizes(f.r))
                        or detail["max_intersecting_size"] <= detail["max_star_size"]):
                    problems.append(f"catalog finding {f.graph6} r={f.r} is not a not_ekr proof")
            return problems

        ops.append(Op(f"search_catalog ekr free trees n={n}", run_catalog, check_catalog,
                      lambda s: {"checks": s.checks, "findings": len(s.findings)}))
    return ops


def _check_labeled_sweep(s) -> list:
    want = (check.LABELED_TREES_2_TO_8, sum(check.FREE_TREES_OEIS[1:8]),
            check.HK_SWEEP_CHECKS, (), 0)
    got = (s.labeled_seen, s.unique_graphs, s.checks, s.findings, s.budget_exceeded)
    return [] if got == want else [f"labeled hk sweep gave {got[:3]}, "
                                   f"{len(s.findings)} findings; expected {want[:3]}, none"]


# -- grid -------------------------------------------------------------------

def _grid(ek, rng: random.Random, out_dir: str) -> list[Op]:
    from ekrkit import cli
    from ekrkit.bounds import BoundQuery

    csv_path = os.path.join(out_dir, f"grid-{os.getpid()}.csv")

    def run_cli():
        code = cli.main(["grid", "--suite", "all", "--out", csv_path])
        return code, os.path.getsize(csv_path)

    def check_cli(out):
        code, _size = out
        rows = bad = 0
        with open(csv_path, "rb") as fh:
            header = fh.readline()
            for line in fh:
                rows += 1
                bad += not line.endswith(b",true\n")
        problems = []
        if code != 0 or header != b"theorem-id,parameters,lhs,rhs,holds\n":
            problems.append(f"grid exit code {code}, header {header!r}")
        if (rows, bad) != (check.GRID_ROWS, 0):
            problems.append(f"grid wrote {rows} rows with {bad} not holding; "
                            f"expected {check.GRID_ROWS}, all holding")
        return problems + _csv_digest_problems(csv_path)

    ns = sorted(rng.sample(range(50, 5001), BOUNDS_QUERIES))

    def run_queries():
        out = []
        for n in ns:
            r5 = ek.rmax("T5", BoundQuery(n=n))
            out.append(("T5", n, 0, r5, [ek.hypothesis("T5", BoundQuery(n=n, r=r)).applicable
                                        for r in range(1, len(r5) + 3)]))
            for s in (1, 2, 3):
                r6 = ek.rmax("T6", BoundQuery(n=n, s=s))
                out.append(("T6", n, s, r6,
                            [ek.hypothesis("T6", BoundQuery(n=n, r=r, s=s)).applicable
                             for r in range(1, max(r6, default=0) + 3)]))
        return out

    def check_queries(out):
        problems = []
        for theorem, n, s, admissible, hyps in out:
            want = [check.theorem_applies(theorem, n, r, s) for r in range(1, len(hyps) + 1)]
            if admissible != [r for r, ok in enumerate(want, 1) if ok]:
                problems.append(f"{theorem} rmax at n={n} s={s} is {admissible}")
            if hyps != want:
                problems.append(f"{theorem} hypothesis at n={n} s={s} disagrees")
        return problems

    pairs = [(u, v) for u in range(PEEL_N) for v in range(u + 1, PEEL_N)]
    peel_jobs = []
    for i in range(PEEL_GRAPHS):
        edges = rng.sample(pairs, PEEL_M)
        g = ek.Graph(PEEL_N, edges, label=f"gnm:{PEEL_N},{PEEL_M}#{i}")
        peel_jobs += [(g, edges, t) for t in (3, 4, 5)]

    def run_peel():
        out = []
        for g, _edges, t in peel_jobs:
            rep = ek.peel(g, t)
            out.append((rep, ek.peel_certificates_ok(rep)))
        return out

    def check_peel(out):
        problems = []
        for (g, edges, t), (rep, ok) in zip(peel_jobs, out):
            problems += check.peel_problems(g.n, edges, t, rep)
            if not ok:
                problems.append(f"peel_certificates_ok rejected {g.label} at {t}")
        return problems

    return [
        Op("cli grid --suite all --out csv", run_cli, check_cli,
           lambda out: {"bytes_out": out[1]}),
        Op("bounds T5/T6 rmax+hypothesis", run_queries, check_queries,
           lambda out: {"queries": len(out)}),
        Op("peel + peel_certificates_ok", run_peel, check_peel,
           lambda out: {"removed": sum(rep.t for rep, _ in out)}),
    ]


def _csv_digest_problems(path: str) -> list:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    if digest.hexdigest() != check.GRID_SHA256:
        return [f"grid CSV digest {digest.hexdigest()[:16]}..., expected {check.GRID_SHA256[:16]}..."]
    return []
