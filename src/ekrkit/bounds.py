"""Closed-form bounds, inequality grids, applicability thresholds, peeling.

All binomials use the total convention: C(a, b) = 0 whenever a < 0, b < 0
or b > a, and C(a, 0) = 1 for a >= 0.  Rational comparisons are exact
(fractions.Fraction); transcendental ones run at PRECISION_BITS = 120 bits
via mpmath with a conservative 1e-9 margin, so borderline hypotheses report
not-applicable rather than applicable.  The T5/T6 yes/no answers that rmax
and the grids need are decided in double precision first; only those within
1e-7 of the threshold, or outside the float path's stated domain, are
decided again at 120 bits (see _applies); hypothesis() takes its T5/T6
answers from there too.  The threshold string that hypothesis() reports,
Applicability.threshold_r, is computed at 120 bits only when it is read.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .graphs import Graph, GraphError, _int_arg, _is_int, iter_bits

PRECISION_BITS = 120
MARGIN = Fraction(1, 10 ** 9)

# each theorem id and the query fields besides r that it reads
THEOREM_READS = {"T3": ("n", "d"), "T2-avg": ("n", "c_density"), "T5": ("n",),
                 "T6": ("n", "s"), "T8": ("n",)}


@functools.cache
def _mpmath():
    """mpmath's context, imported on first use: importing ekrkit does not load it."""
    from mpmath import mp
    return mp


@functools.cache
def _libmp():
    """mpmath's raw-value library, imported on first use like _mpmath()."""
    from mpmath import libmp
    return libmp


def _rational_arg(name: str, x) -> Fraction:
    """x as a Fraction, the one rule for every rational argument: a Fraction,
    an int (not a bool), a decimal or p/q string, or a float read as its
    shortest repr.  Anything else, a zero denominator included, is GraphError."""
    if isinstance(x, Fraction) or _is_int(x):
        return Fraction(x)
    if isinstance(x, (str, float)):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise GraphError(f"need a rational {name} (Fraction, int, decimal or p/q), got {name}={x!r}")


def binom(a: int, b: int) -> int:
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


# -- closed forms ------------------------------------------------------

def ekr_bound(n: int, r: int) -> int:
    """Star size of the empty graph: C(n-1, r-1)."""
    return binom(_int_arg("n", n) - 1, _int_arg("r", r) - 1)


def hm_bound(n: int, r: int) -> int:
    """Largest non-star intersecting r-set family: C(n-1,r-1) - C(n-r-1,r-1) + 1.

    This is the non-star maximum for 2 <= r <= n/2.  At r = 1 it gives 1 while
    the true maximum is 0 (intersecting singletons are all equal); the value is
    kept as is because the hm-identity grid rows use it.
    """
    _int_arg("n", n)
    _int_arg("r", r)
    return binom(n - 1, r - 1) - binom(n - r - 1, r - 1) + 1


def hm_bound_sum_form(n: int, r: int) -> int:
    """Equivalent telescoped form: 1 + sum_{j=2}^{r+1} C(n-j, r-2)."""
    _int_arg("n", n)
    _int_arg("r", r)
    return 1 + sum(binom(n - j, r - 2) for j in range(2, r + 2))


def hm_identity_check(n: int, r: int) -> bool:
    return hm_bound(n, r) == hm_bound_sum_form(n, r)


def frankl_bound(n: int, r: int) -> int:
    """Out-of-star slack C(n-3, r-2), meaningful for r < n/72."""
    return binom(_int_arg("n", n) - 3, _int_arg("r", r) - 2)


def claim_star_lower(n: int, d: int, r: int) -> Fraction:
    """Greedy star lower bound (1/(r-1)!) * prod_{i=1..r-1} (n - i*d).

    Exact rational; collapses to 0 as soon as a factor is nonpositive.
    """
    _int_arg("n", n)
    _int_arg("d", d)
    _int_arg("r", r, 1)
    num = 1
    for i in range(1, r):
        factor = n - i * d
        if factor <= 0:
            return Fraction(0)
        num *= factor
    return Fraction(num, math.factorial(r - 1))


def spider_star_lower(n: int, k: int, r: int) -> int:
    """Leaf star bound for spiders with k legs: C(n-r-1,r-1) + C(n-k-r-2,r-2)."""
    _int_arg("n", n)
    _int_arg("k", k)
    _int_arg("r", r)
    return binom(n - r - 1, r - 1) + binom(n - k - r - 2, r - 2)


def split_star_lower(n: int, s: int, r: int) -> int:
    """Leaf star bound for trees with s >= 2 branch vertices: C(n-r-s,r-1) + 1."""
    _int_arg("n", n)
    _int_arg("s", s)
    _int_arg("r", r)
    return binom(n - r - s, r - 1) + 1


# -- query/record types ------------------------------------------------

@dataclass(frozen=True)
class BoundQuery:
    """Bag of numeric parameters for the threshold theorems."""

    n: Optional[int] = None
    r: Optional[int] = None
    d: Optional[int] = None
    c_density: Optional[Fraction] = None
    s: Optional[int] = None

    def __post_init__(self):
        if self.c_density is not None:
            object.__setattr__(self, "c_density", _rational_arg("c_density", self.c_density))


@dataclass(frozen=True)
class IneqResult:
    name: str
    params: str
    lhs: object
    rhs: object
    holds: Optional[bool]
    hypothesis_ok: bool
    boundary: bool = False


@dataclass(frozen=True)
class Applicability:
    theorem: str
    applicable: bool
    conditions: tuple  # (label, ok) pairs
    n: Optional[int] = None  # T5/T6: the r-threshold is sqrt(n ln c) - (ln c)/2
    c: Optional[Fraction] = None

    @property
    def threshold_r(self) -> Optional[str]:
        """Decimal string (17 digits) of the r-threshold, if one exists; made at
        PRECISION_BITS on each read."""
        if self.c is None:
            return None
        return _mpmath().nstr(_threshold(self.n, self.c), 17)


# -- pointwise estimates -----------------------------------------------

def _mpf_of(x: Fraction):
    mp = _mpmath()
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _exp_and_linear(u: Fraction, v: Fraction) -> tuple:
    """(exp(-u), 1 - v) as raw libmp values at PRECISION_BITS, rounded to nearest.

    Bit for bit what mp.exp(-_mpf_of(u)) and 1 - _mpf_of(v) give under
    workprec(PRECISION_BITS): like mp.mpf(int) there, each numerator and
    denominator is rounded to PRECISION_BITS before the division.
    """
    lib = _libmp()
    prec, rnd = PRECISION_BITS, lib.round_nearest
    from_int, div = lib.from_int, lib.mpf_div
    u = div(from_int(u.numerator, prec, rnd), from_int(u.denominator, prec, rnd), prec, rnd)
    v = div(from_int(v.numerator, prec, rnd), from_int(v.denominator, prec, rnd), prec, rnd)
    return lib.mpf_exp(lib.mpf_neg(u), prec, rnd), lib.mpf_sub(lib.fone, v, prec, rnd)


def check_exp_linear(x, k: int) -> IneqResult:
    """exp(-x) < 1 - (k/(k+1)) x on 0 <= x <= 2k/(k+1)^2; equality only at x = 0."""
    x = _rational_arg("x", x)
    _int_arg("k", k, 1)
    dom_hi = Fraction(2 * k, (k + 1) ** 2)
    hyp_ok = 0 <= x <= dom_hi
    lhs, rhs = _exp_and_linear(x, Fraction(k, k + 1) * x)
    boundary = x == 0
    holds = _libmp().mpf_lt(lhs, rhs) or boundary
    make_mpf = _mpmath().make_mpf
    return IneqResult("exp-linear", f"x={x};k={k}", make_mpf(lhs), make_mpf(rhs), holds,
                      hyp_ok, boundary)


def check_one_minus_exp(y, k: int) -> IneqResult:
    """1 - y > exp(-((k+1)/k) y) on 0 <= y <= 2k^2/(k+1)^3; equality only at y = 0."""
    y = _rational_arg("y", y)
    _int_arg("k", k, 1)
    dom_hi = Fraction(2 * k * k, (k + 1) ** 3)
    hyp_ok = 0 <= y <= dom_hi
    rhs, lhs = _exp_and_linear(Fraction(k + 1, k) * y, y)
    boundary = y == 0
    holds = _libmp().mpf_gt(lhs, rhs) or boundary
    make_mpf = _mpmath().make_mpf
    return IneqResult("one-minus-exp", f"y={y};k={k}", make_mpf(lhs), make_mpf(rhs), holds,
                      hyp_ok, boundary)


def _degree_product(r: int, d: int, n: int) -> tuple[int, int]:
    """(prod_{i=1..r-1} (n - r - i*d), n^(r-1)): the degree product's numerator
    and denominator, not reduced."""
    num = 1
    for i in range(1, r):
        num *= n - r - i * d
    return num, n ** (r - 1)


def check_degree_product(r: int, d: int, n: int) -> IneqResult:
    """prod_{i=1..r-1} (1 - (r+i*d)/n) > r/n once 8n >= 27 d r^2; exact rationals."""
    _int_arg("r", r, 2)
    _int_arg("d", d, 2)
    _int_arg("n", n, 1)
    hyp_ok = 8 * n >= 27 * d * r * r
    lhs = Fraction(*_degree_product(r, d, n))
    rhs = Fraction(r, n)
    return IneqResult("degree-product", f"r={r};d={d};n={n}", lhs, rhs, lhs > rhs, hyp_ok)


def big_star_lower(n: int, r: int, d: int, k: int):
    """Dense-star estimate n^{r-1}/(r-1)! * exp(-(r-1) 2k/(k+1)^2).

    Returns (value, hypothesis_ok); the hypothesis is
    1/(3r) + r*d/n <= 2k^2/(k+1)^3 (exact rational comparison).
    """
    _int_arg("n", n, 1)
    _int_arg("r", r, 1)
    _int_arg("d", d, 1)
    _int_arg("k", k, 1)
    hyp_ok = Fraction(1, 3 * r) + Fraction(r * d, n) <= Fraction(2 * k * k, (k + 1) ** 3)
    mp = _mpmath()
    with mp.workprec(PRECISION_BITS):
        lead = _mpf_of(Fraction(n ** (r - 1), math.factorial(r - 1)))
        value = lead * mp.exp(-_mpf_of(Fraction((r - 1) * 2 * k, (k + 1) ** 2)))
    return value, hyp_ok


# -- theorem applicability ----------------------------------------------

def _threshold(n: int, c: Fraction):
    """The r-threshold sqrt(n ln c) - (ln c)/2, an mpf at PRECISION_BITS."""
    mp = _mpmath()
    with mp.workprec(PRECISION_BITS):
        ln_c = mp.log(_mpf_of(c))
        return mp.sqrt(n * ln_c) - ln_c / 2


def _r_max_below_threshold(n: int, c: Fraction) -> int:
    """The largest integer r <= sqrt(n ln c) - (ln c)/2 less MARGIN, at PRECISION_BITS."""
    mp = _mpmath()
    with mp.workprec(PRECISION_BITS):
        return int(mp.floor(_threshold(n, c) - _mpf_of(MARGIN)))


# _applies decides in floats for n <= _FLOAT_N_MAX and r <= _FLOAT_R_MAX, unless
# the float gap to the threshold is within _FLOAT_BAND
_FLOAT_N_MAX = 10 ** 12
_FLOAT_R_MAX = 10 ** 6
_FLOAT_BAND = 1e-7
_MARGIN_FLOAT = float(MARGIN)


def _applies(theorem: str, n: int, r: int, s: int = 0) -> bool:
    """Whether T5 (s = 0) or T6 applies at (n, r, s), for queries that
    _check_query accepts: hypothesis, rmax and the grids all decide here.

    With x = c - 1 = (r - 2s)/r, the answer is g > 0, where
    g = sqrt(n ln c) - (ln c)/2 - MARGIN - r.  For n <= _FLOAT_N_MAX and
    r <= _FLOAT_R_MAX, g computed in floats is within 6e-10 of the real g:
    - x is one correctly rounded division (relative error u = 2**-53); log1p
      turns that into at most u relatively, as ln(1 + x) >= x/(1 + x), and adds
      at most 1 ulp (2u) of its own, so ln c is within 3u relatively;
    - n and r are exact floats; n ln c adds u, and the square root halves the
      error and adds u, so sqrt(n ln c) <= sqrt(1e12 ln 2) < 832,555 is within
      4u relatively, under 3.7e-10;
    - (ln c)/2 is within 3e-16 and float(MARGIN) within 1e-24, and each of the
      three subtractions rounds a value under 2**20 (r <= 1e6 included) by at
      most half an ulp, 2**-34 < 5.9e-11.
    So |g| > _FLOAT_BAND = 1e-7 fixes the sign with two orders of magnitude to
    spare; every other query is decided at 120 bits by _r_max_below_threshold.
    """
    if theorem == "T6" and not 0 < 2 * s < r:
        return False
    # T5 is the s = 0 case of c = 2 - 2s/r
    if n <= _FLOAT_N_MAX and r <= _FLOAT_R_MAX:
        ln_c = math.log1p((r - 2 * s) / r)
        gap = math.sqrt(n * ln_c) - ln_c / 2 - _MARGIN_FLOAT - r
        if abs(gap) > _FLOAT_BAND:
            return gap > 0
    return r <= _r_max_below_threshold(n, 2 - Fraction(2 * s, r))


def _check_query(theorem: str, q: BoundQuery, with_r: bool) -> None:
    """GraphError unless the theorem is known and q sets what it reads (r too
    when with_r), inside its domain."""
    needs = THEOREM_READS.get(theorem)
    if needs is None:
        raise GraphError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_READS)}")
    if with_r:
        needs += ("r",)
    if any(getattr(q, name) is None for name in needs):
        raise GraphError(f"{theorem} needs {', '.join(needs)}")
    # the least value of each int field: T3 with d < 1 admits every r, and
    # T5/T6 have no real threshold at negative n
    least = {"r": 1, "d": 1, "n": 0 if theorem in ("T5", "T6") else None}
    for name in needs:
        if name != "c_density":
            _int_arg(name, getattr(q, name), least.get(name))


def _dense_enough(c: Fraction) -> bool:
    """T2-avg's c >= e/36, with MARGIN to spare, at PRECISION_BITS."""
    mp = _mpmath()
    with mp.workprec(PRECISION_BITS):
        return bool(_mpf_of(c) >= mp.e / 36 + _mpf_of(MARGIN))


def hypothesis(theorem: str, q: BoundQuery) -> Applicability:
    """Whether the named threshold theorem applies at the query's parameters."""
    _check_query(theorem, q, with_r=True)
    if theorem == "T3":
        ok = 8 * q.n > 27 * q.d * q.r * q.r
        return Applicability(theorem, ok, (("8n > 27*d*r^2", ok),))
    if theorem == "T2-avg":
        c = q.c_density
        c_ok = _dense_enough(c)
        n_ok = Fraction(q.n) > 18 * c * q.r ** 3
        return Applicability(theorem, c_ok and n_ok,
                             (("c >= e/36", c_ok), ("n > 18*c*r^3", n_ok)))
    if theorem == "T5":
        ok = _applies(theorem, q.n, q.r)
        return Applicability(theorem, ok, (("r <= sqrt(n ln 2) - ln(2)/2", ok),),
                             q.n, Fraction(2))
    if theorem == "T6":
        if not 0 < 2 * q.s < q.r:
            return Applicability(theorem, False, (("0 < s < r/2", False),))
        ok = _applies(theorem, q.n, q.r, q.s)
        return Applicability(theorem, ok,
                             (("0 < s < r/2", True),
                              ("r <= sqrt(n ln c) - ln(c)/2, c = 2 - 2s/r", ok)),
                             q.n, 2 - Fraction(2 * q.s, q.r))
    ok = 72 * q.r < q.n  # T8
    return Applicability(theorem, ok, (("r < n/72", ok),))


# the most values of r that rmax lists: the widest range the tests list, T5
# and T6 at n = 10**12 (about 832,000 values), fits
_RMAX_LEN = 2 ** 20


def _icbrt(x: int) -> int:
    """The largest int r with r^3 <= x, for an int x >= 0 (Newton's method from above)."""
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // 3)  # 2^ceil(bits/3) > cbrt(x)
    while True:
        s = (2 * r + x // (r * r)) // 3
        if s >= r:
            return r
        r = s


def rmax(theorem: str, q: BoundQuery) -> list[int]:
    """All r >= 1 at which the named theorem applies for the other parameters;
    GraphError, before anything is built, when the last r to try is past _RMAX_LEN."""
    _check_query(theorem, q, with_r=False)
    if theorem == "T8":
        top = (q.n - 1) // 72
    elif theorem == "T3":  # 8n > 27 d r^2 iff r^2 <= (8n - 1) // (27d)
        top = math.isqrt(max(8 * q.n - 1, 0) // (27 * q.d))
    elif theorem == "T2-avg":  # c = p/q >= e/36; 18pr^3 < nq iff r^3 <= (nq - 1) // (18p)
        c = q.c_density
        top = (_icbrt(max(q.n * c.denominator - 1, 0) // (18 * c.numerator))
               if _dense_enough(c) else 0)
    else:  # T5 (c = 2) applies up to one threshold; T6's c < 2 keeps r under it too
        top = _r_max_below_threshold(q.n, Fraction(2))
    if top > _RMAX_LEN:
        raise GraphError(f"{theorem} applies at more than the {_RMAX_LEN} values of r rmax lists")
    if theorem == "T6":
        return [r for r in range(1, top + 1) if _applies(theorem, q.n, r, q.s)]
    return list(range(1, top + 1))


# -- binomial comparison checks ----------------------------------------

def binoms_ineq_check(n: int, r: int) -> IneqResult:
    """C(n-1, r-1) < 2 C(n-r-1, r-1); hypothesis is the T5 range for r."""
    hyp = hypothesis("T5", BoundQuery(n=n, r=r)).applicable
    lhs = binom(n - 1, r - 1)
    rhs = 2 * binom(n - r - 1, r - 1)
    return IneqResult("binom-doubling", f"n={n};r={r}", lhs, rhs, lhs < rhs, hyp)


def binoms2_ineq_check(n: int, r: int, s: int) -> IneqResult:
    """C(n-1,r-1) <= C(n-r-1,r-1) + C(n-r-s,r-1); hypothesis 1 < s plus T6."""
    _int_arg("n", n)
    _int_arg("r", r)
    _int_arg("s", s)
    hyp = s > 1 and hypothesis("T6", BoundQuery(n=n, r=r, s=s)).applicable
    lhs = binom(n - 1, r - 1)
    rhs = binom(n - r - 1, r - 1) + binom(n - r - s, r - 1)
    return IneqResult("binom-split", f"n={n};r={r};s={s}", lhs, rhs, lhs <= rhs, hyp)


# -- degree peeling -----------------------------------------------------

@dataclass(frozen=True)
class PeelReport:
    source: Graph
    threshold: int
    t: int
    removed: tuple  # (vertex, degree at removal) in removal order
    kept: tuple     # surviving original vertices, ascending
    residual: Graph


def peel(g: Graph, threshold: int) -> PeelReport:
    """Repeatedly delete a vertex of current degree >= threshold.

    Deterministic: always the max-degree vertex, ties to the smallest index.
    Stops when every surviving degree is below the threshold.
    """
    _int_arg("threshold", threshold, 1)
    alive = g.vertex_mask
    live = list(range(g.n))  # ascending, so max() below picks the smallest index on ties
    deg = g.degrees()  # deg[v] = |adj[v] & alive| for every live v
    removed = []
    while live:
        v = max(live, key=deg.__getitem__)
        if deg[v] < threshold:
            break
        removed.append((v, deg[v]))
        live.remove(v)
        alive ^= 1 << v
        for u in iter_bits(g.adj[v] & alive):
            deg[u] -= 1
    residual, kept = g.induced(alive, label=f"{g.label or 'graph'}-peeled")
    return PeelReport(g, threshold, len(removed), tuple(removed), tuple(kept), residual)


def peel_certificates_ok(report: PeelReport) -> bool:
    """Replay the removals and confirm every certificate degree."""
    g = report.source
    alive = g.vertex_mask
    for v, d in report.removed:
        if (g.adj[v] & alive).bit_count() != d or d < report.threshold:
            return False
        alive ^= 1 << v
    if alive != sum(1 << v for v in report.kept):
        return False
    return all((g.adj[v] & alive).bit_count() < report.threshold for v in iter_bits(alive))


def peel_bound_check(report: PeelReport, c: Fraction, r: int) -> dict:
    """Bookkeeping for sparse graphs: with threshold 3cr and <= c*n edges,
    at most n/(3r) removals happen and >= n(1 - 1/(3r)) vertices survive."""
    c = _rational_arg("c", c)
    _int_arg("r", r, 1)
    n = report.source.n
    return {
        "threshold_matches": Fraction(report.threshold) == 3 * c * r,
        "edges_sparse": Fraction(report.source.edge_count()) <= c * n,
        "t_bound": Fraction(report.t) <= Fraction(n, 3 * r),
        "residual_bound": Fraction(len(report.kept)) >= n * (1 - Fraction(1, 3 * r)),
    }


# -- grids ---------------------------------------------------------------
#
# The suites yield each row as a plain (theorem_id, parameters, lhs, rhs, holds)
# tuple, which the writers format directly; only run_grid wraps them as GridRow.

class GridRow(NamedTuple):
    theorem_id: str
    parameters: str
    lhs: str
    rhs: str
    holds: bool


def _binom_walk(m: int, k: int) -> Iterator[int]:
    """C(m, k), C(m+1, k), C(m+2, k), ... in exact integer steps."""
    c = binom(m, k)
    while True:
        yield c
        m += 1
        # C(m, k) = C(m-1, k) * m / (m-k), exact; restart from binom while still 0
        c = c * m // (m - k) if c else binom(m, k)


def _lagged_walks(m: int, k: int, *leads: int) -> tuple[Iterator[int], ...]:
    """One _binom_walk from C(m, k), read by len(leads) iterators, the j-th
    starting leads[j] steps ahead; the shared buffer holds max(leads) values."""
    walks = itertools.tee(_binom_walk(m, k), len(leads))
    for walk, lead in zip(walks, leads):
        next(itertools.islice(walk, lead, lead), None)
    return walks


def _fraction_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without making the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _degree_product_rows():
    for r in range(2, 9):
        for d in range(2, 9):
            n0 = -(-27 * d * r * r // 8)  # ceil
            for n in range(n0, n0 + 200):
                num, den = _degree_product(r, d, n)
                yield ("degree-product", f"r={r};d={d};n={n}", _fraction_str(num, den),
                       _fraction_str(r, n), num * n > r * den)


def _min_admissible_n(applicable, n_max: int):
    """Smallest n <= n_max with applicable(n) true; applicability is monotone in n."""
    if not applicable(n_max):
        return None
    lo, hi = 1, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if applicable(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


_GRID_N_MAX = 5000  # the binoms and binoms2 suites run n up to here


def _binoms_rows():
    # binoms_ineq_check over {n <= _GRID_N_MAX, r in rmax(T5, n)}, grouped by r so the
    # threshold is bisected once per r and C(n-1, r-1) is walked along n; the
    # rhs's C(n-r-1, r-1) is the same walk r steps back
    r = 1
    while True:
        n0 = _min_admissible_n(lambda n: _applies("T5", n, r), _GRID_N_MAX)
        if n0 is None:
            return
        lhs_walk, half_walk = _lagged_walks(n0 - r - 1, r - 1, r, 0)
        for n, lhs, half in zip(range(n0, _GRID_N_MAX + 1), lhs_walk, half_walk):
            yield "binom-doubling", f"n={n};r={r}", str(lhs), str(2 * half), lhs < 2 * half
        r += 1


def _binoms2_rows():
    # binoms2_ineq_check on the T6 range for 2 <= s <= 5 and r <= 16, walked along
    # n like _binoms_rows: C(n-r-1, r-1) and C(n-r-s, r-1) are C(n-1, r-1) r and
    # r+s-1 steps back
    for s in range(2, 6):
        for r in range(2 * s + 1, 17):
            n0 = _min_admissible_n(lambda n: _applies("T6", n, r, s), _GRID_N_MAX)
            if n0 is None:
                continue
            walks = _lagged_walks(n0 - r - s, r - 1, r + s - 1, s - 1, 0)
            for n, lhs, a, b in zip(range(n0, _GRID_N_MAX + 1), *walks):
                yield "binom-split", f"n={n};r={r};s={s}", str(lhs), str(a + b), lhs <= a + b


def _hm_identity_rows():
    for n in range(2, 61):
        for r in range(1, n):
            closed, summed = hm_bound(n, r), hm_bound_sum_form(n, r)
            yield "hm-identity", f"n={n};r={r}", str(closed), str(summed), closed == summed


def _estimates_rows():
    """Interior sampling of both exponential estimates, 100 points per k <= 10."""
    # the checks' sides from _exp_and_linear, printed as nstr(., 17) prints them;
    # no point is 0, so the boundary case never applies
    lib = _libmp()
    to_str, lt, gt = lib.to_str, lib.mpf_lt, lib.mpf_gt
    eps = Fraction(1, 10 ** 6)
    for k in range(1, 11):
        x_hi = Fraction(2 * k, (k + 1) ** 2)
        y_hi = Fraction(2 * k * k, (k + 1) ** 3)
        for j in range(1, 101):
            x = eps + (x_hi - eps) * Fraction(j, 100)
            y = eps + (y_hi - eps) * Fraction(j, 100)
            lhs, rhs = _exp_and_linear(x, Fraction(k, k + 1) * x)
            yield "exp-linear", f"x={x};k={k}", to_str(lhs, 17), to_str(rhs, 17), lt(lhs, rhs)
            rhs, lhs = _exp_and_linear(Fraction(k + 1, k) * y, y)
            yield "one-minus-exp", f"y={y};k={k}", to_str(lhs, 17), to_str(rhs, 17), gt(lhs, rhs)


_SUITES = {
    "degree-product": _degree_product_rows,
    "binoms": _binoms_rows,
    "binoms2": _binoms2_rows,
    "hm-identity": _hm_identity_rows,
    "estimates": _estimates_rows,
}
GRID_SUITES = tuple(_SUITES)


def _suite_rows(suite: str) -> Iterator[tuple]:
    if suite == "all":
        return itertools.chain.from_iterable(rows() for rows in _SUITES.values())
    if suite not in _SUITES:
        raise GraphError(f"unknown grid suite {suite!r}; known: all, {', '.join(GRID_SUITES)}")
    return _SUITES[suite]()


def run_grid(suite: str) -> list[GridRow]:
    """Every row of one suite, or of all of them in GRID_SUITES order for "all"."""
    return list(map(GridRow._make, _suite_rows(suite)))


_CSV_HEADER = "theorem-id,parameters,lhs,rhs,holds\n"


def write_grid_csv(suite: str, stream) -> None:
    """Write the suite's CSV to stream as its rows are made, holding neither rows nor text."""
    rows = _suite_rows(suite)
    write = stream.write
    write(_CSV_HEADER)
    for theorem_id, parameters, lhs, rhs, holds in rows:
        write(f"{theorem_id},{parameters},{lhs},{rhs},{'true' if holds else 'false'}\n")


_JSON_ROW = ('    {{\n      "holds": {},\n      "lhs": {},\n      "parameters": {},\n'
             '      "rhs": {},\n      "theorem_id": {}\n    }}')


def write_grid_json(suite: str, stream) -> None:
    """Write json.dumps({"suite", "rows", "all_hold"}, indent=2, sort_keys=True)
    and a newline to stream without holding the rows: one pass over the suite
    finds all_hold, which sorts first, and a second pass writes each row."""
    dumps = json.dumps
    all_hold = all(row[4] for row in _suite_rows(suite))  # the holds field
    stream.write(f'{{\n  "all_hold": {dumps(all_hold)},\n  "rows": [')
    sep = "\n"
    for theorem_id, parameters, lhs, rhs, holds in _suite_rows(suite):
        stream.write(sep + _JSON_ROW.format("true" if holds else "false", dumps(lhs),
                                            dumps(parameters), dumps(rhs), dumps(theorem_id)))
        sep = ",\n"
    stream.write(f'\n  ],\n  "suite": {dumps(suite)}\n}}\n')
