"""Acceptance gate: one check per contract criterion, one status line each.

Each test prints ``ACCEPTANCE <tag>: PASS|FAIL — <what was checked>`` on the
real terminal (bypassing capture) and then asserts.  Two extra *-literal tests
pin the exact values at r=1, where the closed-form readings of A1 (strict iff
r < n/2) and A2 (the Hilton-Milner formula) do not apply.
"""
import random
import time
from fractions import Fraction
from math import comb

import networkx as nx

import ekrkit.bounds as B
import ekrkit.treegen as T
import ekrkit.verify as V
from ekrkit.families import (count_path_rsets, indep_size_counts,
                             star_vector_tree_dp)
from ekrkit.graphs import (Graph, SpiderSpec, emit_graph6, generate,
                           max_independent_set_size, min_maximal_independent_set_size)

import helpers as H


def report(tag: str, desc: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {tag}: {status} — {desc}{suffix}", flush=True)
    assert ok, f"{tag} failed: {desc}{suffix}"


def spiders(n_lo: int, n_hi: int, shapes="partitions"):
    gen = H.iter_partitions if shapes == "partitions" else H.iter_compositions
    for n in range(max(4, n_lo), n_hi + 1):
        for legs in gen(n - 1, 3):
            yield n, SpiderSpec(legs)


def test_a01_edgeless_maximum_families():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 10):
        for r in range(1, n // 2 + 1):
            rep = V.is_r_ekr(generate(f"empty:{n}"), r)
            if rep.max_intersecting_size != comb(n - 1, r - 1):
                bad.append(("size", n, r, rep.max_intersecting_size))
            if (n, r) == (2, 1):
                continue  # exact r=1 value pinned by the *-literal test
            strict = V.is_strictly_r_ekr(generate(f"empty:{n}"), r)
            if (strict.verdict == V.STRICTLY_EKR) != (2 * r < n):
                bad.append(("strict", n, r, strict.verdict))
    elapsed = time.perf_counter() - t0
    report("A1", "edgeless graphs n<=9: maximum family = C(n-1,r-1), strict iff r<n/2",
           not bad, extra=f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a01_literal_degenerate_pair():
    # the 1-sets {0} and {1} are disjoint, so every intersecting family has at
    # most one member and the maximum families {{0}}, {{1}} are full stars:
    # the exact verdict is strictly_ekr with size 1 = C(1,0), although the
    # reading "strict iff r < n/2" (true for r >= 2) would say not strict
    strict = V.is_strictly_r_ekr(generate("empty:2"), 1)
    ok = (strict.verdict == V.STRICTLY_EKR
          and strict.max_intersecting_size == 1)
    report("A1-literal", "n=2, r=1 is strictly_ekr with maximum size 1 = C(1,0); "
                         "strict iff r<n/2 holds for r>=2, and r=1 is always strict",
           ok, extra=f"exact verdict {strict.verdict}, "
                     f"size {strict.max_intersecting_size}")


def test_a02_edgeless_nonstar_maximum():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            ns = V.max_nonstar_intersecting(generate(f"empty:{n}"), r)
            want = B.hm_bound(n, r) if r >= 2 else 0
            if ns.max_intersecting_size != want:
                bad.append((n, r, ns.max_intersecting_size, want))
    elapsed = time.perf_counter() - t0
    report("A2", "edgeless graphs n<=8: empty-intersection max = C(n-1,r-1)-C(n-r-1,r-1)+1 "
                 "for r>=2, and 0 at r=1",
           not bad, extra=f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a02_literal_r_equals_one():
    # singletons that pairwise intersect are all equal, so no nonempty
    # intersecting family of 1-sets has an empty total intersection: the exact
    # maximum is 0 with an empty witness (the operation's contract), while the
    # Hilton-Milner closed form, valid for 2 <= r <= n/2, evaluates to 1 here
    ns = V.max_nonstar_intersecting(generate("empty:6"), 1)
    ok = (ns.max_intersecting_size == 0 and ns.witness == ()
          and B.hm_bound(6, 1) == 1)
    report("A2-literal", "empty:6, r=1 has exact non-star maximum 0 with witness (); "
                         "the closed form read literally gives 1", ok,
           extra=f"exact {ns.max_intersecting_size} vs formula {B.hm_bound(6, 1)}")


def test_a03_counting_oracles_agree():
    t0 = time.perf_counter()
    bad = []
    for m in range(1, 19):
        path = generate(f"path:{m}")
        counts = indep_size_counts(path)
        for r in range(1, m + 1):
            formula = count_path_rsets(m, r).count
            enumerated = counts[r] if r < len(counts) else 0
            if formula != enumerated:
                bad.append(("path", m, r, formula, enumerated))
    rng = random.Random(90125)
    for _ in range(200):
        n = rng.randint(2, 16)
        g = Graph(n, H.random_tree_edges(rng, n))
        for v in range(n):
            dp = star_vector_tree_dp(g, v)
            enum = indep_size_counts(g, anchor=v)
            hi = max(len(dp), len(enum))
            for r in range(1, hi):
                a = dp[r] if r < len(dp) else 0
                b = enum[r] if r < len(enum) else 0
                if a != b:
                    bad.append(("tree", n, v, r, a, b))
    elapsed = time.perf_counter() - t0
    report("A3", "path closed form vs enumeration (m<=18) and star sizes "
                 "DP vs enumeration (200 random trees, n<=16)",
           not bad, extra=f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a04_spider_leaf_star_floor():
    t0 = time.perf_counter()
    bad = []
    for n, spec in spiders(4, 14, shapes="compositions"):
        g = spec.realize()
        k = spec.k
        alpha = max_independent_set_size(g)
        for i in range(k):
            vec = star_vector_tree_dp(g, spec.leaf_vertex(i))
            for r in range(1, alpha + 1):
                have = vec[r] if r < len(vec) else 0
                if have < B.spider_star_lower(n, k, r):
                    bad.append((spec.legs, i, r, have))
    elapsed = time.perf_counter() - t0
    report("A4", "every spider n<=14 (all leg compositions), every leaf, every r: "
                 "leaf star size >= C(n-r-1,r-1)+C(n-k-r-2,r-2)",
           not bad, extra=f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a05_spider_star_order():
    bad = []
    for n, spec in spiders(4, 13):
        alpha = max_independent_set_size(spec.realize())
        for r in range(1, alpha + 1):
            rep = V.spider_order_check(spec, r)
            if not rep.ok:
                bad.append((spec.legs, r, rep.violations[:2]))
    report("A5", "star-size orderings hold on all spiders n<=13, all r",
           not bad, extra=f"bad={bad[:3]}" if bad else "")


def test_a06_spiders_in_admissible_range_are_ekr():
    t0 = time.perf_counter()
    bad = []
    for n in range(7, 13):
        admissible = B.rmax("T5", B.BoundQuery(n=n))
        for _, spec in spiders(n, n):
            g = spec.realize()
            for r in admissible:
                rep = V.is_r_ekr(g, r)
                if rep.verdict != V.EKR:
                    bad.append((spec.legs, r, rep.verdict))
    elapsed = time.perf_counter() - t0
    report("A6", "every spider 7<=n<=12 at admissible r gets the exact verdict ekr",
           not bad, extra=f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a07_multi_split_tree_leaf_floor():
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for n in range(6, 12):
        for g in T.free_trees(n):
            s = sum(1 for v in range(n) if g.degree(v) >= 3)
            if s < 2:
                continue
            checked += 1
            alpha = max_independent_set_size(g)
            leaves = [v for v in range(n) if g.degree(v) == 1]
            for v in leaves:
                vec = star_vector_tree_dp(g, v)
                for r in range(2, alpha + 1):
                    have = vec[r] if r < len(vec) else 0
                    if have < B.split_star_lower(n, s, r):
                        bad.append((g.label, v, r, have))
    elapsed = time.perf_counter() - t0
    report("A7", "trees with >=2 split vertices, n<=11: every leaf star size "
                 ">= C(n-r-s,r-1)+1 for 2<=r<=alpha",
           not bad and checked > 100,
           extra=f"{checked} trees, {elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a08_complete_bipartite_controls():
    rep = V.is_r_ekr(generate("kpartite:3,3"), 2)
    control = (rep.verdict == V.NOT_EKR and rep.max_intersecting_size == 3
               and rep.max_star_size == 2)
    bad = []
    for n1 in range(1, 5):
        for n2 in range(n1, 5):
            alpha = n2
            for r in range(1, alpha // 2 + 1):
                v = V.is_r_ekr(generate(f"kpartite:{n1},{n2}"), r)
                if v.verdict != V.EKR:
                    bad.append((n1, n2, r, v.verdict))
    report("A8", "balanced bipartite control is not_ekr (3 vs 2); small part "
                 "sizes at r<=alpha/2 are all ekr",
           control and not bad, extra=f"bad={bad[:3]}" if bad else "")


def test_a09_peeling_on_sparse_random_graphs():
    rng = random.Random(8128)
    bad = []
    for c in (1, 2):
        for _ in range(50):
            n = rng.randint(6, 30)
            m = rng.randint(0, c * n)
            g = Graph(n, H.random_graph_edges(rng, n, m))
            for r in (2, 3):
                rep = B.peel(g, 3 * c * r)
                checks = B.peel_bound_check(rep, Fraction(c), r)
                if not (B.peel_certificates_ok(rep) and all(checks.values())):
                    bad.append((n, c, r, checks))
    report("A9", "peeling 100 random sparse graphs at r in {2,3}: t <= n/(3r), "
                 "residual degree < 3cr, certificates replay",
           not bad, extra=f"bad={bad[:3]}" if bad else "")


def test_a10_inequality_grids_all_hold():
    t0 = time.perf_counter()
    rows = B.run_grid("all")
    failures = [r for r in rows if not r.holds]
    ids = {r.theorem_id for r in rows}
    expected_ids = {"degree-product", "binom-doubling", "binom-split",
                    "hm-identity", "exp-linear", "one-minus-exp"}
    elapsed = time.perf_counter() - t0
    report("A10", "all inequality grid suites pass",
           not failures and ids == expected_ids and len(rows) > 350_000,
           extra=f"{len(rows)} rows, {elapsed:.1f}s"
                 + (f"; failures={failures[:3]}" if failures else ""))


def test_a11_leaf_maximum_ground_truth():
    t0 = time.perf_counter()
    summary = T.search_trees(T.PROP_HK, 8, r_max=4)
    sweep_ok = (summary.findings == () and summary.labeled_seen == 280392
                and summary.labeled_seen >= 8 ** 6)
    bad = []
    for n, spec in spiders(4, 14):
        g = spec.realize()
        alpha = max_independent_set_size(g)
        for r in range(1, alpha + 1):
            rep = V.is_r_hk(g, r)
            if not rep.holds:
                bad.append((spec.legs, r))
    elapsed = time.perf_counter() - t0
    report("A11", "full labeled-tree sweep n<=8 (r<=4) finds no leaf-maximum "
                  "failures; every spider n<=14 has a leaf maximum for all r",
           sweep_ok and not bad,
           extra=f"{summary.labeled_seen} labeled trees, {summary.checks} checks, "
                 f"{elapsed:.1f}s" + (f"; bad={bad[:3]}" if bad else ""))


def test_a12_mixed_size_families_on_edgeless_graphs():
    bad = []
    for n in range(1, 6):
        rep = V.nonuniform_ekr(generate(f"empty:{n}"))
        if rep.max_intersecting_size != 2 ** (n - 1) or rep.verdict != V.EKR:
            bad.append((n, rep.max_intersecting_size, rep.verdict))
    report("A12", "edgeless graphs n<=5: mixed-size maximum intersecting family "
                  "= 2^(n-1) with verdict ekr",
           not bad, extra=f"bad={bad}" if bad else "")


def test_a13_conjecture_range_is_ekr_on_small_graphs():
    # is_r_ekr at every 1 <= r <= mu/2 (mu: the least maximal independent set
    # size) on every nonempty atlas graph (n <= 7) and every free tree n <= 13
    t0 = time.perf_counter()
    atlas = [Graph(a.number_of_nodes(), list(a.edges()))
             for a in nx.graph_atlas_g() if a.number_of_nodes()]
    trees = [t for n in range(1, 14) for t in T.free_trees(n)]
    checks, nodes, findings = [0, 0], [0, 0], []
    for i, catalog in enumerate((atlas, trees)):
        for g in catalog:
            mu = min_maximal_independent_set_size(g)
            for r in range(1, mu // 2 + 1):
                rep = V.is_r_ekr(g, r)
                checks[i] += 1
                nodes[i] += rep.nodes_explored
                if rep.verdict == V.NOT_EKR:
                    findings.append((emit_graph6(g), r, mu, rep.to_json_dict()["witness"]))
    elapsed = time.perf_counter() - t0
    report("A13", "is_r_ekr finds no counterexample at 1 <= r <= mu/2 on the "
                  "1,252 nonempty atlas graphs and the 2,288 free trees n<=13",
           not findings and (len(atlas), len(trees)) == (1252, 2288)
           and checks == [1088, 4380],
           extra=f"checks {checks[0]} + {checks[1]}, nodes {nodes[0]} + {nodes[1]}, "
                 f"{elapsed:.1f}s" + (f"; findings (graph6, r, mu, witness)={findings[:3]}"
                                      if findings else ""))
