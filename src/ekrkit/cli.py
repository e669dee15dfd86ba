"""Batch command-line driver: verdicts, counts, bounds, grids, sweeps.

Exit codes: 0 = result computed (whatever the verdict), 2 = a search ran out
of node budget, 1 = unusable input.  JSON output is deterministic: stable
key order, no timestamps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import bounds as bnd
from . import families as fam
from . import graphs as gr
from . import treegen as tg
from . import verify as vf

GENERATOR_KINDS = ("empty", "path", "cycle", "star", "spider", "kpartite", "tristar")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


class CliError(ValueError):
    pass


@dataclass(frozen=True)
class JobSpec:
    command: str
    graph_source: Optional[str] = None
    r: Optional[int] = None
    budget: Optional[vf.SearchBudget] = None
    out: Optional[str] = None
    fmt: str = "json"
    options: tuple = ()  # sorted extra (key, value) pairs

    def opt(self, key, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default


def load_graph(source: str) -> gr.Graph:
    """Generator string, graph6 file, or edge-list file -> Graph."""
    kind = source.partition(":")[0].strip().lower()
    if kind in GENERATOR_KINDS:
        return gr.generate(source)
    if not os.path.exists(source):
        raise CliError(f"{source!r} is neither a known generator nor a readable file")
    with open(source, "r", encoding="ascii") as fh:
        text = fh.read()
    return _parse_graph_text(text, source)


def _parse_graph_text(text: str, source: str) -> gr.Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CliError(f"{source!r} contains no graph data")
    first = lines[0]
    toks = first.split()
    if len(toks) == 2 and all(t.lstrip("-").isdigit() for t in toks):
        return gr.parse_edge_list(text)
    return gr.parse_graph6(first)


def load_catalog(path: str) -> list[gr.Graph]:
    """One graph per non-comment line: generator string or graph6."""
    if not os.path.exists(path):
        raise CliError(f"catalog file {path!r} not found")
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            kind = ln.partition(":")[0].strip().lower()
            if kind in GENERATOR_KINDS:
                out.append(gr.generate(ln))
            else:
                out.append(gr.parse_graph6(ln))
    if not out:
        raise CliError(f"catalog file {path!r} contains no graphs")
    return out


def _parse_vertex_set(arg: str) -> int:
    if not arg.strip():
        return 0
    return gr.mask_of(int(t) for t in arg.replace(",", " ").split())


def _emit(stream, payload, fmt: str):
    if fmt == "json":
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif fmt == "text":
        _emit_text(stream, payload)
    else:
        raise CliError(f"format {fmt!r} not available for this command")


def _emit_text(stream, payload, prefix=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                stream.write(f"{prefix}{k}:\n")
                _emit_text(stream, v, prefix + "  ")
            else:
                stream.write(f"{prefix}{k}: {v}\n")
    elif isinstance(payload, list):
        for v in payload:
            _emit_text(stream, v, prefix)
    else:
        stream.write(f"{prefix}{payload}\n")


def _budget_from(arg: Optional[int]) -> vf.SearchBudget:
    if arg is None:
        return vf.default_budget()
    return vf.SearchBudget(arg)


# -- per-command runners -------------------------------------------------

def _run_count(job: JobSpec, stream) -> int:
    g = load_graph(job.graph_source)
    if job.r is None:
        raise CliError("count needs --r")
    method = job.opt("method", "auto")
    anchor = job.opt("anchor")
    forbid = _parse_vertex_set(job.opt("forbid", ""))
    if method == fam.CLOSED_FORM:
        if anchor is not None or forbid:
            raise CliError("closed form has no anchored/restricted variant")
        if g.n > 1 and not (g.is_tree() and g.max_degree() <= 2):
            raise CliError("closed form applies to paths only")
        res = fam.count_path_rsets(g.n, job.r)
    elif method == fam.TREE_DP:
        if anchor is not None:
            res = fam.star_size(g, anchor, job.r, method=fam.TREE_DP)
        else:
            if forbid:
                raise CliError("tree DP does not take --forbid; use enumeration")
            res = fam.CountResult(fam.indep_size_counts_tree_dp(g, job.r)[job.r], fam.TREE_DP)
    elif method in ("auto", fam.ENUMERATION):
        if method == "auto" and anchor is not None:
            res = fam.star_size(g, anchor, job.r)
        else:
            counts = fam.indep_size_counts(g, anchor, forbid, max_size=job.r)
            res = fam.CountResult(counts[job.r], fam.ENUMERATION)
    else:
        raise CliError(f"unknown counting method {method!r}")
    payload = {"graph": g.label or job.graph_source, "n": g.n, "r": job.r,
               "count": res.count, "method": res.method}
    if job.fmt == "text":
        stream.write(f"{res.count}\n")
    else:
        _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_star(job: JobSpec, stream) -> int:
    g = load_graph(job.graph_source)
    if job.r is None:
        raise CliError("star needs --r")
    vertex = job.opt("vertex")
    if vertex is not None:
        res = fam.star_size(g, vertex, job.r)
        payload = {"graph": g.label or job.graph_source, "n": g.n, "r": job.r,
                   "vertex": vertex, "size": res.count, "method": res.method}
    else:
        sizes = [fam.star_size(g, v, job.r).count for v in range(g.n)]
        top = max(sizes) if sizes else 0
        payload = {"graph": g.label or job.graph_source, "n": g.n, "r": job.r,
                   "star_sizes": sizes, "max_size": top,
                   "max_vertex": sizes.index(top) if sizes else None}
    _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_verdict(job: JobSpec, stream) -> int:
    g = load_graph(job.graph_source)
    budget = job.budget or vf.default_budget()
    if job.command == "nonuniform-ekr":
        rep = vf.nonuniform_ekr(g, budget)
    else:
        if job.r is None:
            raise CliError(f"{job.command} needs --r")
        op = vf.is_strictly_r_ekr if job.command == "strict-ekr" else vf.is_r_ekr
        rep = op(g, job.r, budget)
    payload = rep.to_json_dict()
    payload["graph"] = g.label or job.graph_source
    _emit(stream, payload, job.fmt)
    return EXIT_BUDGET if rep.verdict == vf.BUDGET_EXCEEDED else EXIT_OK


def _run_hk(job: JobSpec, stream) -> int:
    g = load_graph(job.graph_source)
    if job.r is None:
        raise CliError("hk needs --r")
    rep = vf.is_r_hk(g, job.r)
    payload = rep.to_json_dict()
    payload["graph"] = g.label or job.graph_source
    _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_spider_order(job: JobSpec, stream) -> int:
    raw = job.opt("legs")
    if not raw:
        raise CliError("spider-order needs --legs")
    legs = tuple(int(t) for t in raw.replace(",", " ").split())
    spec = gr.SpiderSpec(legs)
    if job.r is None:
        payload = {"legs": list(legs), "order": list(spec.order),
                   "ordered_legs": [legs[i] for i in spec.order]}
    else:
        payload = vf.spider_order_check(spec, job.r).to_json_dict()
    _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_bounds(job: JobSpec, stream) -> int:
    theorem = job.opt("theorem")
    formula = job.opt("formula")
    if (theorem is None) == (formula is None):
        raise CliError("bounds needs exactly one of --theorem/--formula")
    n = job.opt("n")
    if formula is not None:
        if n is None or job.r is None:
            raise CliError("--formula needs --n and --r")
        table = {"ekr": bnd.ekr_bound, "hm": bnd.hm_bound, "frankl": bnd.frankl_bound}
        if formula == "claim-star":
            d = job.opt("d")
            if d is None:
                raise CliError("claim-star needs --d")
            val = bnd.claim_star_lower(n, d, job.r)
            payload = {"formula": formula, "n": n, "r": job.r, "d": d,
                       "value": str(val)}
        elif formula in table:
            payload = {"formula": formula, "n": n, "r": job.r,
                       "value": table[formula](n, job.r)}
        else:
            raise CliError(f"unknown formula {formula!r}")
        _emit(stream, payload, job.fmt)
        return EXIT_OK
    if theorem not in bnd.THEOREM_IDS:
        raise CliError(f"unknown theorem id {theorem!r}; expected one of {bnd.THEOREM_IDS}")
    if n is None:
        raise CliError("--theorem needs --n")
    kw = {"n": n}
    for key in ("d", "s", "k"):
        v = job.opt(key)
        if v is not None:
            kw[key] = v
    c = job.opt("c")
    if c is not None:
        kw["c_density"] = Fraction(c)
    if job.r is not None:
        kw["r"] = job.r
    q = bnd.BoundQuery(**kw)
    admissible = bnd.rmax(theorem, q)
    payload = {"theorem": theorem, "n": n,
               "r_max": max(admissible) if admissible else 0,
               "admissible_r": admissible}
    if job.r is not None:
        app = bnd.hypothesis(theorem, q)
        payload["hypothesis"] = {"r": job.r, "applicable": app.applicable,
                                 "conditions": [list(c) for c in app.conditions],
                                 "threshold_r": app.threshold_r}
        if app.threshold_r is not None:
            payload["threshold"] = app.threshold_r
    else:
        probe = bnd.BoundQuery(**{**kw, "r": max(max(admissible, default=1), 1)})
        app = bnd.hypothesis(theorem, probe)
        if app.threshold_r is not None:
            payload["threshold"] = app.threshold_r
    _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_grid(job: JobSpec, stream) -> int:
    suite = job.opt("suite", "all")
    if job.fmt in ("csv", "text"):
        bnd.write_grid_csv(suite, stream)
    elif job.fmt == "json":
        rows = bnd.run_grid(suite)
        _emit(stream, {"suite": suite, "rows": [r._asdict() for r in rows],
                       "all_hold": all(r.holds for r in rows)}, "json")
    else:
        raise CliError(f"format {job.fmt!r} not available for grid")
    return EXIT_OK


def _run_peel(job: JobSpec, stream) -> int:
    g = load_graph(job.graph_source)
    threshold = job.opt("threshold")
    if threshold is None:
        raise CliError("peel needs --threshold")
    rep = bnd.peel(g, threshold)
    payload = {
        "graph": g.label or job.graph_source,
        "n": g.n,
        "threshold": rep.threshold,
        "t": rep.t,
        "removed": [list(p) for p in rep.removed],
        "kept": list(rep.kept),
        "residual_graph6": gr.emit_graph6(rep.residual),
        "certificates_ok": bnd.peel_certificates_ok(rep),
    }
    c = job.opt("c")
    if c is not None and job.r is not None:
        checks = bnd.peel_bound_check(rep, Fraction(c), job.r)
        payload["bound_checks"] = {k: bool(v) for k, v in sorted(checks.items())}
    _emit(stream, payload, job.fmt)
    return EXIT_OK


def _run_search(job: JobSpec, stream) -> int:
    prop = tg.PROP_HK if job.command == "search-hk" else tg.PROP_EKR
    budget = job.budget or vf.default_budget()
    r_max = job.opt("r-max")
    catalog = job.opt("catalog")

    def on_finding(f):
        stream.write(json.dumps({"finding": f.to_json_dict()}, sort_keys=True) + "\n")

    if catalog is not None:
        graphs = load_catalog(catalog)
        summary = tg.search_catalog(prop, graphs, r_max=r_max, budget=budget,
                                    on_finding=on_finding)
    else:
        n_max = job.opt("n-max")
        if n_max is None:
            raise CliError(f"{job.command} needs --n-max (or --catalog)")
        n_min = job.opt("n-min", 2)
        summary = tg.search_trees(prop, n_max, r_max=r_max, budget=budget,
                                  n_min=n_min, on_finding=on_finding)
    stream.write(json.dumps({"summary": summary.to_json_dict()}, sort_keys=True) + "\n")
    return EXIT_BUDGET if summary.budget_exceeded else EXIT_OK


_RUNNERS = {
    "count": _run_count,
    "star": _run_star,
    "ekr": _run_verdict,
    "strict-ekr": _run_verdict,
    "nonuniform-ekr": _run_verdict,
    "hk": _run_hk,
    "spider-order": _run_spider_order,
    "bounds": _run_bounds,
    "grid": _run_grid,
    "peel": _run_peel,
    "search-hk": _run_search,
    "search-ekr": _run_search,
}


def run(job: JobSpec) -> int:
    """Execute one job; returns the process exit code."""
    if job.command not in _RUNNERS:
        raise CliError(f"unknown command {job.command!r}")
    if job.out:
        with open(job.out, "w", encoding="utf-8") as fh:
            return _RUNNERS[job.command](job, fh)
    return _RUNNERS[job.command](job, sys.stdout)


# -- argument parsing ----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ekrkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, graph=False, r=False, budget=False, fmt=("json", "text")):
        sp = sub.add_parser(name, help=help_)
        if graph:
            sp.add_argument("--graph", required=True,
                            help="generator (e.g. spider:2,3,4) or graph file")
        if r:
            sp.add_argument("--r", type=int, default=None, help="set size")
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help=f"search node budget (default ${vf.BUDGET_ENV} or "
                                 f"{vf.DEFAULT_MAX_NODES})")
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.add_argument("--format", dest="fmt", choices=fmt, default=fmt[0])
        return sp

    sp = add("count", "count independent r-sets", graph=True, r=True)
    sp.add_argument("--anchor", type=int, default=None, help="count only sets containing this vertex")
    sp.add_argument("--forbid", default="", help="comma-separated vertices excluded from sets")
    sp.add_argument("--method", default="auto",
                    choices=("auto", fam.ENUMERATION, fam.TREE_DP, fam.CLOSED_FORM))

    sp = add("star", "star sizes s_r(v)", graph=True, r=True)
    sp.add_argument("--vertex", type=int, default=None, help="single vertex (default: all)")

    add("ekr", "exact EKR verdict", graph=True, r=True, budget=True)
    add("strict-ekr", "exact strict-EKR verdict", graph=True, r=True, budget=True)
    add("nonuniform-ekr", "EKR verdict over all set sizes at once", graph=True, budget=True)
    add("hk", "is the max star on a leaf of this tree?", graph=True, r=True)

    sp = add("spider-order", "canonical leg order, optionally star-size checks", r=True)
    sp.add_argument("--legs", required=True, help="comma-separated leg lengths")

    sp = add("bounds", "closed-form bounds and theorem applicability", r=True)
    sp.add_argument("--theorem", default=None, help=f"one of {', '.join(bnd.THEOREM_IDS)}")
    sp.add_argument("--formula", default=None, help="ekr | hm | frankl | claim-star")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--d", type=int, default=None, help="max degree parameter")
    sp.add_argument("--s", type=int, default=None, help="split-vertex count parameter")
    sp.add_argument("--k", type=int, default=None, help="leg/distance parameter")
    sp.add_argument("--c", default=None, help="edge-density parameter (rational, e.g. 1/2)")

    sp = add("grid", "inequality grid suites", fmt=("csv", "json", "text"))
    sp.add_argument("--suite", default="all", choices=bnd.GRID_SUITES + ("all",))

    sp = add("peel", "high-degree peeling with certificates", graph=True, r=True)
    sp.add_argument("--threshold", type=int, required=True)
    sp.add_argument("--c", default=None, help="density used for the t-bound checks")

    for name in ("search-hk", "search-ekr"):
        sp = add(name, "counterexample sweep over trees or a catalog", budget=True)
        sp.add_argument("--n-max", type=int, default=None)
        sp.add_argument("--n-min", type=int, default=2)
        sp.add_argument("--r-max", type=int, default=None)
        if name == "search-ekr":
            sp.add_argument("--catalog", default=None,
                            help="file of graphs (generator strings or graph6 lines)")
    return p


_OPTION_KEYS = ("method", "anchor", "forbid", "vertex", "legs", "theorem", "formula",
                "n", "d", "s", "k", "c", "suite", "threshold", "catalog")


def job_from_args(args: argparse.Namespace) -> JobSpec:
    opts = []
    ns = vars(args)
    for key in _OPTION_KEYS:
        if key in ns and ns[key] is not None:
            opts.append((key, ns[key]))
    for key in ("n_max", "n_min", "r_max"):
        if key in ns and ns[key] is not None:
            opts.append((key.replace("_", "-"), ns[key]))
    budget = None
    if ns.get("budget") is not None:
        budget = vf.SearchBudget(ns["budget"])
    return JobSpec(
        command=args.command,
        graph_source=ns.get("graph"),
        r=ns.get("r"),
        budget=budget,
        out=ns.get("out"),
        fmt=ns.get("fmt", "json"),
        options=tuple(sorted(opts)),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return run(job_from_args(args))
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. `| head`): exit quietly,
        # pointing stdout at devnull so interpreter shutdown can flush safely
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_OK
    except (CliError, gr.GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
