import functools
import hashlib
import itertools
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ekrkit
import ekrkit.bounds as B
from ekrkit.bounds import BoundQuery
from ekrkit.graphs import Graph, GraphError, generate

import helpers as H


# -- closed forms ----------------------------------------------------------

def test_binom_total_convention():
    assert B.binom(5, 2) == 10
    assert B.binom(3, 5) == 0
    assert B.binom(-1, 0) == 0
    assert B.binom(4, -1) == 0
    assert B.binom(0, 0) == 1


def test_star_and_nonstar_bounds():
    assert B.ekr_bound(10, 3) == comb(9, 2) == 36
    assert B.hm_bound(6, 2) == 5 - 3 + 1 == 3
    assert B.hm_bound(8, 3) == comb(7, 2) - comb(4, 2) + 1 == 16
    assert B.hm_bound(9, 4) == comb(8, 3) - comb(4, 3) + 1 == 53
    assert B.frankl_bound(146, 2) == comb(143, 0) == 1
    assert B.frankl_bound(150, 3) == comb(147, 1) == 147


def test_hm_identity_small_exhaustive():
    for n in range(2, 41):
        for r in range(1, n):
            assert B.hm_identity_check(n, r), (n, r)


def test_claim_star_lower():
    val = B.claim_star_lower(10, 3, 3)
    assert isinstance(val, Fraction)
    assert val == Fraction((10 - 3) * (10 - 6), 2) == 14
    assert B.claim_star_lower(6, 3, 3) == 0   # second factor hits zero
    assert B.claim_star_lower(5, 3, 4) == 0   # negative factor collapses
    assert B.claim_star_lower(9, 2, 4) == Fraction(7 * 5 * 3, 6)
    assert B.claim_star_lower(4, 99, 1) == 1  # empty product
    with pytest.raises(GraphError):
        B.claim_star_lower(5, 2, 0)


def test_leaf_star_lower_bounds():
    assert B.spider_star_lower(7, 3, 2) == comb(4, 1) + comb(0, 0) == 5
    assert B.spider_star_lower(10, 3, 2) == comb(7, 1) + comb(3, 0) == 8
    assert B.split_star_lower(6, 2, 2) == comb(2, 1) + 1 == 3
    assert B.split_star_lower(11, 2, 3) == comb(6, 2) + 1 == 16


def test_bound_query_normalizes_to_fractions():
    assert BoundQuery(n=10, c_density=0.5).c_density == Fraction(1, 2)
    assert BoundQuery(c_density=0.1).c_density == Fraction(1, 10)
    assert BoundQuery(c_density=2).c_density == Fraction(2)


# -- pointwise estimates -----------------------------------------------------

def test_exp_linear_interior_and_boundary():
    res = B.check_exp_linear(Fraction(1, 10), 1)
    assert res.holds and res.hypothesis_ok and not res.boundary
    res0 = B.check_exp_linear(0, 1)
    assert res0.holds and res0.boundary
    edge = B.check_exp_linear(Fraction(1, 2), 1)  # right edge of the domain
    assert edge.holds and edge.hypothesis_ok and not edge.boundary
    outside = B.check_exp_linear(Fraction(9, 10), 1)
    assert not outside.hypothesis_ok
    with pytest.raises(GraphError):
        B.check_exp_linear(Fraction(1, 10), 0)


def test_one_minus_exp_interior_and_boundary():
    res = B.check_one_minus_exp(Fraction(1, 10), 1)
    assert res.holds and res.hypothesis_ok and not res.boundary
    res0 = B.check_one_minus_exp(0, 3)
    assert res0.holds and res0.boundary
    edge = B.check_one_minus_exp(Fraction(2, 8), 1)  # 2k^2/(k+1)^3 at k=1
    assert edge.holds and edge.hypothesis_ok
    assert not B.check_one_minus_exp(Fraction(1, 2), 1).hypothesis_ok


# numerators and denominators past PRECISION_BITS, where mp.mpf(int) rounds
_WIDE_FRACTIONS = st.builds(Fraction, st.integers(-2 ** 300, 2 ** 300), st.integers(1, 2 ** 300))


@settings(max_examples=300, deadline=None)
@given(x=_WIDE_FRACTIONS, k=st.integers(1, 20))
@example(x=Fraction(298738086778591238766483947383679881, 524196608665881067090229653483622497),
         k=7)  # unrounded 121-bit integers give different last bits here
def test_exp_and_linear_is_bit_identical_to_the_mpf_path(x, k):
    # the raw libmp values of both estimate checks against mp.mpf and mp.exp
    pairs = [(x, Fraction(k, k + 1) * x), (Fraction(k + 1, k) * x, x)]
    mp = B._mpmath()
    with mp.workprec(B.PRECISION_BITS):
        want = [(mp.exp(-B._mpf_of(u))._mpf_, (1 - B._mpf_of(v))._mpf_) for u, v in pairs]
    assert [B._exp_and_linear(u, v) for u, v in pairs] == want


def test_degree_product_exact():
    res = B.check_degree_product(2, 2, 27)
    assert res.hypothesis_ok  # 8*27 = 216 = 27*2*4 exactly
    assert res.lhs == Fraction(23, 27) and res.rhs == Fraction(2, 27)
    assert res.holds
    low = B.check_degree_product(3, 4, 10)
    assert not low.hypothesis_ok
    with pytest.raises(GraphError):
        B.check_degree_product(1, 2, 10)
    with pytest.raises(GraphError):
        B.check_degree_product(2, 1, 10)


def test_big_star_lower_desk_instance():
    value, hyp_ok = B.big_star_lower(72, 2, 3, 1)
    assert hyp_ok  # 1/6 + 6/72 = 1/4 = 2k^2/(k+1)^3 exactly
    assert 43 < float(value) < 44
    # the path on 72 vertices realizes the hypothesis (max degree 2 < 3);
    # its best r=2 star must clear the estimate
    from ekrkit.families import star_size
    g = generate("path:72")
    best = max(star_size(g, v, 2).count for v in (0, 1, 36))
    assert best >= float(value)
    _, bad = B.big_star_lower(30, 3, 3, 1)
    assert not bad
    with pytest.raises(GraphError):
        B.big_star_lower(10, 0, 2, 1)


# -- theorem applicability -----------------------------------------------------

def test_hypothesis_t3():
    assert B.hypothesis("T3", BoundQuery(n=28, r=2, d=2)).applicable   # 224 > 216
    assert not B.hypothesis("T3", BoundQuery(n=27, r=2, d=2)).applicable  # equality fails
    with pytest.raises(GraphError):
        B.hypothesis("T3", BoundQuery(n=28, r=2))


def test_hypothesis_t5_threshold_string():
    app = B.hypothesis("T5", BoundQuery(n=16, r=2))
    assert app.applicable
    assert app.threshold_r.startswith("2.983")
    assert not B.hypothesis("T5", BoundQuery(n=16, r=3)).applicable


def test_hypothesis_t6_conditions():
    app = B.hypothesis("T6", BoundQuery(n=143, r=5, s=2))
    assert app.applicable
    assert not B.hypothesis("T6", BoundQuery(n=143, r=4, s=2)).applicable  # needs r > 2s
    assert not B.hypothesis("T6", BoundQuery(n=143, r=7, s=2)).applicable  # over threshold
    labels = [c[0] for c in app.conditions]
    assert labels[0] == "0 < s < r/2"


def test_hypothesis_t2avg_density_margin():
    ok = B.hypothesis("T2-avg", BoundQuery(n=145, r=2, c_density=Fraction(756, 10000)))
    assert ok.applicable  # 0.0756 clears e/36 ~ 0.0755078
    low = B.hypothesis("T2-avg", BoundQuery(n=145, r=2, c_density=Fraction(755, 10000)))
    assert not low.applicable
    tight = B.hypothesis("T2-avg", BoundQuery(n=144, r=2, c_density=Fraction(1)))
    assert not tight.applicable  # needs n > 144 strictly


def test_hypothesis_t8():
    assert B.hypothesis("T8", BoundQuery(n=145, r=2)).applicable
    assert not B.hypothesis("T8", BoundQuery(n=144, r=2)).applicable
    with pytest.raises(GraphError):
        B.hypothesis("T9", BoundQuery(n=10, r=1))


def test_thresholds_reject_degenerate_parameters():
    # T3 with d < 1 admits every r (rmax never returned); T5/T6 have no real threshold at n < 0
    for theorem, q in [("T3", BoundQuery(n=10, d=0)), ("T3", BoundQuery(n=10, d=-1)),
                       ("T5", BoundQuery(n=-5)), ("T6", BoundQuery(n=-5, s=1)),
                       ("T6", BoundQuery(n=-5, s=3))]:
        with pytest.raises(GraphError):
            B.rmax(theorem, q)
        with pytest.raises(GraphError):
            B.hypothesis(theorem, replace(q, r=3))
    assert B.rmax("T5", BoundQuery(n=0)) == []
    assert B.rmax("T6", BoundQuery(n=0, s=1)) == []


def test_hypothesis_rejects_r_below_one():
    # as claim_star_lower does: a set size below 1 is no applicable case
    for theorem, q in [("T3", BoundQuery(n=100, d=2)),
                       ("T2-avg", BoundQuery(n=145, c_density=Fraction(1))),
                       ("T5", BoundQuery(n=16)), ("T6", BoundQuery(n=143, s=2)),
                       ("T8", BoundQuery(n=145))]:
        for r in (0, -3):
            with pytest.raises(GraphError, match="r >= 1"):
                B.hypothesis(theorem, replace(q, r=r))
        B.hypothesis(theorem, replace(q, r=1))


def test_rmax_frozen_values():
    assert B.rmax("T5", BoundQuery(n=16)) == [1, 2]
    assert B.rmax("T5", BoundQuery(n=7)) == [1]
    assert B.rmax("T5", BoundQuery(n=100)) == list(range(1, 8))
    assert B.rmax("T6", BoundQuery(n=143, s=2)) == [5, 6]
    assert B.rmax("T8", BoundQuery(n=145)) == [1, 2]
    assert B.rmax("T8", BoundQuery(n=72)) == []
    assert B.rmax("T2-avg", BoundQuery(n=145, c_density=Fraction(1))) == [1, 2]
    assert B.rmax("T3", BoundQuery(n=100, d=2)) == [1, 2, 3]


def test_rmax_refuses_ranges_it_cannot_list():
    # the last r to try is worked out before any list is built; these ranges
    # run from about 5.4e6 (T3) to 1.4e10 (T8) values
    for theorem, q in [("T8", BoundQuery(n=10 ** 12)), ("T5", BoundQuery(n=10 ** 16)),
                       ("T6", BoundQuery(n=10 ** 16, s=1)), ("T3", BoundQuery(n=10 ** 14, d=1)),
                       ("T2-avg", BoundQuery(n=10 ** 30, c_density=Fraction(1)))]:
        with pytest.raises(GraphError, match="more than the 1048576 values of r rmax lists"):
            B.rmax(theorem, q)


def test_rmax_t3_closed_form_matches_condition():
    for n in range(-3, 300):
        for d in range(1, 5):
            assert B.rmax("T3", BoundQuery(n=n, d=d)) == [
                r for r in range(1, 40) if 8 * n > 27 * d * r * r], (n, d)


@pytest.mark.parametrize(
    "theorem,kw,r_hi",
    [
        ("T3", dict(n=200, d=2), 12),
        ("T5", dict(n=60), 10),
        ("T6", dict(n=400, s=2), 14),
        ("T8", dict(n=300), 8),
        ("T2-avg", dict(n=400, c_density=Fraction(1, 2)), 8),
    ],
)
def test_rmax_matches_hypothesis(theorem, kw, r_hi):
    admissible = B.rmax(theorem, BoundQuery(**kw))
    for r in range(1, r_hi + 1):
        # rmax and hypothesis both decide T6 through _applies: check it against the oracle
        expect = (_exact_applies(theorem, r=r, **kw) if theorem == "T6"
                  else B.hypothesis(theorem, BoundQuery(r=r, **kw)).applicable)
        assert (r in admissible) == expect, (theorem, r)


def _exact_applies(theorem, n, r, s=0):
    """The 120-bit answer for T5 (s = 0) or T6, read off the threshold alone."""
    if theorem == "T6" and not 0 < 2 * s < r:
        return False
    mp = B._mpmath()
    with mp.workprec(B.PRECISION_BITS):
        t = B._threshold(n, 2 - Fraction(2 * s, r))
        return bool(mp.mpf(r) <= t - B._mpf_of(B.MARGIN))


def test_applies_agrees_with_the_120_bit_path():
    mp = B._mpmath()
    # T5: every (n, r) with n <= 5000 and r <= 60 (past the threshold at n = 5000);
    # the 120-bit answer is r <= t - MARGIN, so one threshold per n gives every r
    for n in range(0, 5001):
        t = B._threshold(n, Fraction(2))
        with mp.workprec(B.PRECISION_BITS):
            top = int(mp.floor(t - B._mpf_of(B.MARGIN)))
        assert [r for r in range(1, 61) if B._applies("T5", n, r)] == list(range(1, top + 1)), n
    # T6: a stride over n, every s <= 5 and every r up to past the T5 threshold
    for n in range(1, 5001, 37):
        for s in range(0, 6):
            for r in range(1, isqrt(n * 7 // 10) + 4):
                assert B._applies("T6", n, r, s) == _exact_applies("T6", n, r, s), (n, r, s)


def test_applies_defers_near_the_threshold_and_outside_its_domain(monkeypatch):
    deferred = []
    exact = B._r_max_below_threshold

    def spy(n, c):
        deferred.append((n, c))
        return exact(n, c)

    monkeypatch.setattr(B, "_r_max_below_threshold", spy)
    n_max, r_max = B._FLOAT_N_MAX, B._FLOAT_R_MAX
    for theorem, n, r, s, defers in [
        # float gap to t - MARGIN within _FLOAT_BAND: +3.2e-8, +3.6e-8 and -1.6e-9
        ("T5", 6_671_008, 2150, 0, True), ("T6", 4869, 50, 8, True),
        ("T6", 96_836, 174, 55, True),
        # further from the threshold, the float answer stands
        ("T5", 6_670_008, 2150, 0, False), ("T6", 4859, 50, 8, False),
        # edges of the float domain (at n = 1e12 the T5 threshold is near 832,554.3)
        ("T5", n_max, r_max, 0, False), ("T5", n_max + 1, r_max, 0, True),
        ("T5", n_max, r_max + 1, 0, True), ("T5", n_max, 832_554, 0, False),
        ("T5", n_max, 832_555, 0, False), ("T6", n_max, r_max, r_max // 2 - 1, False),
        ("T6", n_max, r_max + 1, 1, True), ("T6", n_max + 1, 3, 1, True),
        ("T5", 0, 1, 0, False), ("T6", 0, 3, 1, False), ("T6", n_max, 4, 2, False),
    ]:
        deferred.clear()
        got = B._applies(theorem, n, r, s)
        assert deferred == ([(n, 2 - Fraction(2 * s, r))] if defers else []), (theorem, n, r, s)
        assert got == _exact_applies(theorem, n, r, s), (n, r, s)


def test_hypothesis_t5_t6_records_are_pinned():
    # SHA-256 of the T5/T6 records as the all-120-bit hypothesis() made them; the
    # threshold strings are read here, so this also pins their lazy computation
    digest = hashlib.sha256()
    for n in [*range(0, 3000, 7), 10 ** 9, 10 ** 9 + 1, 6_671_008]:
        for r in (1, 2, 5, 13, 40):
            for theorem, s in [("T5", 0), *(("T6", s) for s in range(0, 6))]:
                app = B.hypothesis(theorem, BoundQuery(n=n, r=r, s=s))
                digest.update(repr((theorem, n, r, s, app.applicable, app.conditions,
                                    app.threshold_r)).encode())
    assert digest.hexdigest() == (
        "bf6fa6325731ff430092bc852251f4fae4211cc3bc7ad0e028c3262407d91225")


def test_rmax_t5_closed_form_matches_the_loop():
    # one threshold gives the range; the oracle asks _applies for every r
    for n in range(0, 3000):
        want, r = [], 1
        while B._applies("T5", n, r):
            want.append(r)
            r += 1
        assert B.rmax("T5", BoundQuery(n=n)) == want, n
    # large n; the tops were found with the per-r loop (seconds at these n)
    for n, top in [(10 ** 9 - 1, 26_327), (10 ** 9, 26_327), (10 ** 9 + 1, 26_327),
                   (10 ** 9 + 7, 26_327), (3 * 10 ** 9, 45_600), (10 ** 10, 83_255)]:
        assert B.rmax("T5", BoundQuery(n=n)) == list(range(1, top + 1)), n
        assert _exact_applies("T5", n, top) and not _exact_applies("T5", n, top + 1), n


def _e_over_36_plus(eps: Fraction) -> Fraction:
    """e/36 + eps, with e/36 rounded to 40 digits (far below MARGIN = 1e-9)."""
    mp = B._mpmath()
    with mp.workdps(40):
        return Fraction(mp.nstr(mp.e / 36, 40)) + eps


def test_rmax_t2_avg_closed_form_matches_the_walk():
    # one cube root gives the range; the oracle asks hypothesis for every r
    cs = [Fraction(1), Fraction(1, 2), Fraction(5, 2), Fraction(3, 7), Fraction(0), Fraction(-1),
          _e_over_36_plus(Fraction(2, 10 ** 9)),    # just above e/36 + MARGIN
          _e_over_36_plus(Fraction(1, 2 * 10 ** 9)),  # above e/36, inside MARGIN
          _e_over_36_plus(Fraction(-1, 10 ** 9))]   # just below e/36
    for c in cs:
        # n = 0 and 1, and 18 c r^3 = n exactly where c's denominator allows
        ns = {0, 1, 2, 100, 9720}
        for r in range(1, 7):
            edge = 18 * c * r ** 3
            if edge.denominator == 1:
                ns |= {int(edge) - 1, int(edge), int(edge) + 1}
        for n in sorted(ns):
            q = BoundQuery(n=n, c_density=c)
            want = [r for r in range(1, 40) if B.hypothesis("T2-avg", replace(q, r=r)).applicable]
            assert B.rmax("T2-avg", q) == want, (n, c)
    assert B.rmax("T2-avg", BoundQuery(n=18, c_density=1)) == []
    assert B.rmax("T2-avg", BoundQuery(n=19, c_density=1)) == [1]
    assert B.rmax("T2-avg", BoundQuery(n=9720, c_density=cs[6])) == list(range(1, 20))
    assert B.rmax("T2-avg", BoundQuery(n=9720, c_density=cs[7])) == []
    assert B.rmax("T2-avg", BoundQuery(n=9720, c_density=cs[8])) == []


def test_rmax_t2_avg_guard_needs_no_walk(monkeypatch):
    # exactly 2^20 values are listed and one more is refused, with no per-r test
    def no_walk(*args):
        raise AssertionError("rmax walked r")

    monkeypatch.setattr(B, "hypothesis", no_walk)
    top = B._RMAX_LEN
    q = BoundQuery(n=18 * top ** 3 + 1, c_density=1)
    got = B.rmax("T2-avg", q)
    assert (len(got), got[0], got[-1]) == (top, 1, top)
    with pytest.raises(GraphError, match="more than the 1048576 values of r rmax lists"):
        B.rmax("T2-avg", replace(q, n=18 * (top + 1) ** 3 + 1))


def test_rmax_t6_matches_the_120_bit_answer_at_large_n():
    # these n decide every r in floats: compare the range with the 120-bit oracle
    # at both ends, just outside them, and at 200 seeded r in between
    rng = random.Random(20)
    for n in (10 ** 9 + 1, 10 ** 10, 10 ** 12):
        for s in (1, 2):
            got = B.rmax("T6", BoundQuery(n=n, s=s))
            lo, hi = got[0], got[-1]
            assert got == list(range(lo, hi + 1)) and lo == 2 * s + 1, (n, s)
            for r in (lo, hi, *rng.sample(range(lo + 1, hi), 200)):
                assert _exact_applies("T6", n, r, s), (n, r, s)
            assert not _exact_applies("T6", n, hi + 1, s), (n, s)


# -- binomial comparisons --------------------------------------------------------

def test_binoms_ineq_frozen():
    res = B.binoms_ineq_check(16, 2)
    assert (res.lhs, res.rhs) == (15, 26) and res.holds and res.hypothesis_ok
    res = B.binoms_ineq_check(100, 7)
    assert res.holds and res.hypothesis_ok
    assert not B.binoms_ineq_check(100, 8).hypothesis_ok
    # out-of-hypothesis failure example: the inequality genuinely breaks
    wide = B.binoms_ineq_check(10, 4)
    assert not wide.hypothesis_ok and not wide.holds


def test_binoms2_ineq_frozen():
    res = B.binoms2_ineq_check(143, 5, 2)
    assert res.lhs == 16234505
    assert res.rhs == 14043870 + 13633830 == 27677700
    assert res.holds and res.hypothesis_ok
    assert not B.binoms2_ineq_check(143, 4, 2).hypothesis_ok
    assert not B.binoms2_ineq_check(143, 5, 1).hypothesis_ok  # s must exceed 1


# -- degree peeling ----------------------------------------------------------------

def test_peel_star_example():
    rep = B.peel(generate("star:9"), 6)
    assert rep.t == 1
    assert rep.removed == ((0, 9),)
    assert rep.kept == tuple(range(1, 10))
    assert rep.residual.edge_count() == 0
    assert B.peel_certificates_ok(rep)
    checks = B.peel_bound_check(rep, Fraction(1), 2)
    assert all(checks.values())


def test_peel_no_op_on_sparse_graph():
    rep = B.peel(generate("path:20"), 6)
    assert rep.t == 0 and rep.removed == ()
    assert rep.residual == generate("path:20")
    assert B.peel_certificates_ok(rep)


def test_peel_threshold_one_leaves_no_edges():
    for spec in ("star:5", "cycle:7", "kpartite:2,3"):
        rep = B.peel(generate(spec), 1)
        assert rep.residual.edge_count() == 0
        assert B.peel_certificates_ok(rep)
    with pytest.raises(GraphError):
        B.peel(generate("path:3"), 0)


def test_peel_certificates_catch_tampering():
    rep = B.peel(generate("star:9"), 6)
    forged = replace(rep, removed=((0, 5),))
    assert not B.peel_certificates_ok(forged)
    forged2 = replace(rep, kept=tuple(range(0, 9)))
    assert not B.peel_certificates_ok(forged2)


def test_peel_deterministic_tie_break():
    # two vertices of equal max degree: the smaller index goes first
    g = Graph(6, [(0, 2), (0, 3), (1, 4), (1, 5), (0, 1)])
    rep = B.peel(g, 3)
    assert rep.removed[0][0] == 0


def test_peel_matches_recounting_every_degree():
    # the reference recounts every live degree before each removal
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = Graph(n, H.random_graph_edges(rng, n, rng.randint(0, 3 * n)))
        for threshold in range(1, 7):
            alive, removed = g.vertex_mask, []
            while True:
                degs = {v: (g.adj[v] & alive).bit_count() for v in range(n) if alive >> v & 1}
                v = min(degs, key=lambda u: (-degs[u], u), default=None)
                if v is None or degs[v] < threshold:
                    break
                removed.append((v, degs[v]))
                alive ^= 1 << v
            rep = B.peel(g, threshold)
            assert rep.removed == tuple(removed), (g.edges(), threshold)
            assert rep.kept == tuple(v for v in range(n) if alive >> v & 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 18), st.data())
def test_peel_invariants_property(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    g = Graph(n, edges)
    threshold = data.draw(st.integers(1, 6))
    rep = B.peel(g, threshold)
    assert B.peel_certificates_ok(rep)
    assert rep.residual.n == g.n - rep.t
    if rep.residual.n:
        assert rep.residual.max_degree() < threshold
    # every removal deletes >= threshold edges, so t * threshold <= |E|
    assert rep.t * threshold <= g.edge_count()


# -- grids -------------------------------------------------------------------------

def _small_rows(suite, **caps):
    """The rows of the suite whose named integer parameters are all <= their caps."""
    def small(row):
        params = dict(p.split("=") for p in row.parameters.split(";"))
        return all(int(params[name]) <= cap for name, cap in caps.items())
    return [row for row in B.run_grid(suite) if small(row)]


def test_grid_degree_product_small():
    rows = _small_rows("degree-product", r=3, d=3)
    assert len(rows) == 4 * 200
    assert all(r.holds for r in rows)
    assert rows[0].theorem_id == "degree-product"


def test_grid_binoms_small():
    rows = _small_rows("binoms", n=60)
    assert rows and all(r.holds for r in rows)
    # spot check membership matches the threshold rule
    names = {r.parameters for r in rows}
    assert "n=16;r=2" in names and "n=16;r=3" not in names


def test_grid_binoms2_small():
    rows = _small_rows("binoms2", n=200)
    assert rows and all(r.holds for r in rows)
    assert all(r.theorem_id == "binom-split" for r in rows)


def test_grid_hm_identity_small():
    rows = _small_rows("hm-identity", n=12)
    assert all(r.holds for r in rows)
    assert len(rows) == sum(n - 1 for n in range(2, 13))


def test_grid_estimates_small():
    rows = _small_rows("estimates", k=2)
    assert len(rows) == 2 * 2 * 100
    assert all(r.holds for r in rows)


def test_run_grid_and_csv():
    rows = B.run_grid("hm-identity")
    assert len(rows) == sum(n - 1 for n in range(2, 61)) and all(r.holds for r in rows)
    out = io.StringIO()
    B.write_grid_csv("hm-identity", out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "theorem-id,parameters,lhs,rhs,holds"
    assert all(line.endswith(",true") for line in lines[1:])
    with pytest.raises(AttributeError):
        rows[0].holds = False  # rows are immutable
    with pytest.raises(GraphError):
        B.run_grid("nope")


def test_write_grid_csv_streams_the_same_text():
    out = io.StringIO()
    B.write_grid_csv("hm-identity", out)
    header, *lines = out.getvalue().split("\n")[:-1]
    assert header == "theorem-id,parameters,lhs,rhs,holds"
    assert lines == [f"{r.theorem_id},{r.parameters},{r.lhs},{r.rhs},{str(r.holds).lower()}"
                     for r in B.run_grid("hm-identity")]
    out = io.StringIO()
    with pytest.raises(GraphError):
        B.write_grid_csv("nope", out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("suite", B.GRID_SUITES)
def test_grid_writers_match_run_grid_rows(monkeypatch, suite):
    # shrink the suite to a prefix of its rows where the writers look it up
    rows_of = B._SUITES[suite]
    monkeypatch.setitem(B._SUITES, suite, lambda: itertools.islice(rows_of(), 60))
    rows = B.run_grid(suite)
    assert rows and all(type(row) is B.GridRow for row in rows)
    out = io.StringIO()
    B.write_grid_csv(suite, out)
    assert out.getvalue() == "theorem-id,parameters,lhs,rhs,holds\n" + "".join(
        f"{r.theorem_id},{r.parameters},{r.lhs},{r.rhs},{str(r.holds).lower()}\n" for r in rows)
    out = io.StringIO()
    B.write_grid_json(suite, out)
    doc = {"suite": suite, "rows": [r._asdict() for r in rows],
           "all_hold": all(r.holds for r in rows)}
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_import_does_not_load_mpmath():
    # mpmath is imported on first use, so that importing ekrkit stays cheap
    src = os.path.dirname(os.path.dirname(ekrkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # and T5/T6 answers decided in floats leave it unloaded until a threshold is read
    code = ("import sys, ekrkit\n"
            "loaded = ['mpmath' in sys.modules]\n"
            "apps = [ekrkit.hypothesis('T5', ekrkit.BoundQuery(n=16, r=2)),\n"
            "        ekrkit.hypothesis('T6', ekrkit.BoundQuery(n=143, r=5, s=2))]\n"
            "assert [app.applicable for app in apps] == [True, True]\n"
            "loaded.append('mpmath' in sys.modules)\n"
            "assert apps[0].threshold_r.startswith('2.983')\n"
            "loaded.append('mpmath' in sys.modules)\n"
            "print(*loaded)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False False True\n"), proc.stderr


def test_binom_walk_matches_binom():
    # starts below the support (values 0) and must restart there, then step exactly
    for k in range(7):
        for m0 in range(-3, 12):
            walk = B._binom_walk(m0, k)
            assert [next(walk) for _ in range(40)] == [B.binom(m, k) for m in range(m0, m0 + 40)]


def _pointwise_row(res, fmt=str):
    return B.GridRow(res.name, res.params, fmt(res.lhs), fmt(res.rhs), res.holds)


def test_grid_walks_match_pointwise_checks():
    # every row of the production suites with n <= 400 (binoms) or n <= 600 (binoms2)
    want = sorted((r, n) for n in range(1, 401) for r in B.rmax("T5", BoundQuery(n=n)))
    assert _small_rows("binoms", n=400) == [
        _pointwise_row(B.binoms_ineq_check(n, r)) for r, n in want]
    want = [(s, r, n) for s in range(2, 6) for r in range(2 * s + 1, 17)
            for n in range(1, 601)
            if B.hypothesis("T6", BoundQuery(n=n, r=r, s=s)).applicable]
    assert {s for s, _, _ in want} == {2, 3, 4}  # s = 5 needs n > 600
    assert _small_rows("binoms2", n=600) == [
        _pointwise_row(B.binoms2_ineq_check(n, r, s)) for s, r, n in want]


def test_grid_rows_match_pointwise_checks():
    # every row of the degree-product, hm-identity and estimates suites
    n0 = lambda r, d: -(-27 * d * r * r // 8)
    assert B.run_grid("degree-product") == [
        _pointwise_row(B.check_degree_product(r, d, n))
        for r in range(2, 9) for d in range(2, 9) for n in range(n0(r, d), n0(r, d) + 200)]
    assert B.run_grid("hm-identity") == [
        B.GridRow("hm-identity", f"n={n};r={r}", str(B.hm_bound(n, r)),
                  str(B.hm_bound_sum_form(n, r)), B.hm_identity_check(n, r))
        for n in range(2, 61) for r in range(1, n)]
    nstr = functools.partial(B._mpmath().nstr, n=17)
    eps = Fraction(1, 10 ** 6)
    want = []
    for k in range(1, 11):
        for j in range(1, 101):
            x = eps + (Fraction(2 * k, (k + 1) ** 2) - eps) * Fraction(j, 100)
            y = eps + (Fraction(2 * k * k, (k + 1) ** 3) - eps) * Fraction(j, 100)
            want += [_pointwise_row(B.check_exp_linear(x, k), nstr),
                     _pointwise_row(B.check_one_minus_exp(y, k), nstr)]
    assert B.run_grid("estimates") == want


def test_degree_product_matches_factor_product():
    signs = set()
    for r in range(2, 7):
        for d in range(2, 6):
            for n in range(1, 80):
                want = Fraction(1)
                for i in range(1, r):
                    want *= 1 - Fraction(r + i * d, n)
                res = B.check_degree_product(r, d, n)
                assert (res.lhs, str(res.lhs)) == (want, str(want))
                assert res.holds == (want > Fraction(r, n))
                signs.add((want > 0) - (want < 0))
    assert signs == {-1, 0, 1}


def test_min_admissible_n_matches_linear_scan():
    for cut in (1, 7, 50, 100):
        pred = lambda n, c=cut: n >= c
        assert B._min_admissible_n(pred, 100) == cut
    assert B._min_admissible_n(lambda n: False, 100) is None
