"""Batch command-line driver: verdicts, counts, bounds, grids, sweeps.

The parser declares every subcommand, its options and which of them are
required, and binds the subcommand's runner with `set_defaults(run=...)`;
each runner reads the parsed arguments directly and writes one result.
Exit codes: 0 = result computed (whatever the verdict), 2 = a search ran out
of node budget, 1 = unusable input (argument errors included).  JSON output
is deterministic: stable key order, no timestamps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Callable, Optional

from . import bounds as bnd
from . import families as fam
from . import graphs as gr
from . import treegen as tg
from . import verify as vf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


class CliError(ValueError):
    pass


def _data_lines(text: str) -> list[str]:
    """The stripped lines of text, without blank lines and # comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]


def _generator_or(text: str, parse: Callable[[str], gr.Graph]) -> gr.Graph:
    """`text` as a generator string if it names a generator kind, else parse(text)."""
    if text.partition(":")[0].strip().lower() in gr.GENERATOR_KINDS:
        return gr.generate(text)
    return parse(text)


def load_graph(source: str) -> gr.Graph:
    """Generator string, graph6 file, or edge-list file -> Graph."""
    return _generator_or(source, _read_graph_file)


def _read_graph_file(path: str) -> gr.Graph:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = _data_lines(text)
    if not lines:
        raise CliError(f"{path!r} contains no graph data")
    toks = lines[0].split()
    if len(toks) == 2 and all(t.lstrip("-").isdigit() for t in toks):
        return gr.parse_edge_list(text)
    return gr.parse_graph6(lines[0])


def load_catalog(path: str) -> list[gr.Graph]:
    """One graph per non-comment line: generator string or graph6."""
    with open(path, "r", encoding="ascii") as fh:
        out = [_generator_or(ln, gr.parse_graph6) for ln in _data_lines(fh.read())]
    if not out:
        raise CliError(f"catalog file {path!r} contains no graphs")
    return out


def _parse_vertex_set(arg: str, n: int) -> int:
    """Comma-separated --forbid vertices of a graph on n vertices as a mask."""
    return gr.mask_of(gr._int_arg("forbid", int(t), 0, n - 1)
                      for t in arg.replace(",", " ").split())


def _budget(args) -> Optional[vf.SearchBudget]:
    """--budget as a SearchBudget; None leaves the default to verify."""
    return None if args.budget is None else vf.SearchBudget(args.budget)


def _emit(stream, payload, fmt: str):
    if fmt == "json":
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(stream, payload)


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
            if isinstance(v, list):  # an inner list keeps to one line
                stream.write(f"{prefix}{' '.join(map(str, v))}\n")
            else:
                _emit_text(stream, v, prefix)
    else:
        stream.write(f"{prefix}{payload}\n")


# -- per-command runners -------------------------------------------------

def _run_count(args, stream) -> int:
    g = load_graph(args.graph)
    res = fam.count_rsets(g, args.r, args.anchor, _parse_vertex_set(args.forbid, g.n),
                          args.method)
    payload = {"graph": g.label or args.graph, "n": g.n, "r": args.r,
               "count": res.count, "method": res.method}
    if args.fmt == "text":
        stream.write(f"{res.count}\n")
    else:
        _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_star(args, stream) -> int:
    g = load_graph(args.graph)
    if args.vertex is not None:
        res = fam.star_size(g, args.vertex, args.r)
        payload = {"graph": g.label or args.graph, "n": g.n, "r": args.r,
                   "vertex": args.vertex, "size": res.count, "method": res.method}
    else:
        if g.is_forest():  # one rerooting pass, reading coefficient r only
            r = gr._int_arg("r", args.r, 0)
            sizes = fam._star_column(fam._star_polys(g), g.n, r)
        else:
            sizes = [fam.star_size(g, v, args.r).count for v in range(g.n)]
        top = max(sizes)
        payload = {"graph": g.label or args.graph, "n": g.n, "r": args.r,
                   "star_sizes": sizes, "max_size": top, "max_vertex": sizes.index(top)}
    _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_verdict(args, stream) -> int:
    g = load_graph(args.graph)
    if args.command == "nonuniform-ekr":
        rep = vf.nonuniform_ekr(g, _budget(args))
    else:
        op = vf.is_strictly_r_ekr if args.command == "strict-ekr" else vf.is_r_ekr
        rep = op(g, args.r, _budget(args))
    payload = rep.to_json_dict()
    payload["graph"] = g.label or args.graph
    _emit(stream, payload, args.fmt)
    return EXIT_BUDGET if rep.verdict == vf.BUDGET_EXCEEDED else EXIT_OK


def _run_hk(args, stream) -> int:
    g = load_graph(args.graph)
    payload = vf.is_r_hk(g, args.r).to_json_dict()
    payload["graph"] = g.label or args.graph
    _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_spider_order(args, stream) -> int:
    legs = tuple(int(t) for t in args.legs.replace(",", " ").split())
    spec = gr.SpiderSpec(legs)
    if args.r is None:
        payload = {"legs": list(legs), "order": list(spec.order),
                   "ordered_legs": [legs[i] for i in spec.order]}
    else:
        payload = vf.spider_order_check(spec, args.r).to_json_dict()
    _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_bounds(args, stream) -> int:
    theorem, formula, n, r = args.theorem, args.formula, args.n, args.r
    if theorem:
        reads = bnd.THEOREM_READS[theorem]
    else:  # of the formulas only claim-star reads d
        reads = ("d",) if formula == "claim-star" else ()
    unread = [f"--{opt}" for opt, name in (("d", "d"), ("s", "s"), ("c", "c_density"))
              if getattr(args, opt) is not None and name not in reads]
    if unread:
        raise CliError(f"{theorem or formula} does not read {', '.join(unread)}")
    if formula is not None:
        if n is None or r is None:
            raise CliError("--formula needs --n and --r")
        table = {"ekr": bnd.ekr_bound, "hm": bnd.hm_bound, "frankl": bnd.frankl_bound}
        if formula == "claim-star":
            if args.d is None:
                raise CliError("claim-star needs --d")
            val = bnd.claim_star_lower(n, args.d, r)
            payload = {"formula": formula, "n": n, "r": r, "d": args.d,
                       "value": str(val)}
        else:
            payload = {"formula": formula, "n": n, "r": r,
                       "value": table[formula](n, r)}
        _emit(stream, payload, args.fmt)
        return EXIT_OK
    q = bnd.BoundQuery(n=n, r=r, d=args.d, s=args.s, c_density=args.c)
    admissible = bnd.rmax(theorem, q)
    payload = {"theorem": theorem, "n": n,
               "r_max": max(admissible) if admissible else 0,
               "admissible_r": admissible}
    app = bnd.hypothesis(theorem, q if r is not None
                         else replace(q, r=max(admissible, default=1)))
    threshold = app.threshold_r  # computed at 120 bits on each read
    if r is not None:
        payload["hypothesis"] = {"r": r, "applicable": app.applicable,
                                 "conditions": [list(c) for c in app.conditions],
                                 "threshold_r": threshold}
    if threshold is not None:
        payload["threshold"] = threshold
    _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_grid(args, stream) -> int:
    write = bnd.write_grid_json if args.fmt == "json" else bnd.write_grid_csv
    write(args.suite, stream)
    return EXIT_OK


def _run_peel(args, stream) -> int:
    if (args.c is None) != (args.r is None):
        raise CliError("peel takes --c and --r together (both feed the bound checks)")
    g = load_graph(args.graph)
    rep = bnd.peel(g, args.threshold)
    payload = {
        "graph": g.label or args.graph,
        "n": g.n,
        "threshold": rep.threshold,
        "t": rep.t,
        "removed": [list(p) for p in rep.removed],
        "kept": list(rep.kept),
        "residual_graph6": gr.emit_graph6(rep.residual),
        "certificates_ok": bnd.peel_certificates_ok(rep),
    }
    if args.c is not None:
        checks = bnd.peel_bound_check(rep, args.c, args.r)
        payload["bound_checks"] = {k: bool(v) for k, v in sorted(checks.items())}
    _emit(stream, payload, args.fmt)
    return EXIT_OK


def _run_search(args, stream) -> int:
    prop = tg.PROP_HK if args.command == "search-hk" else tg.PROP_EKR

    def on_finding(f):
        stream.write(json.dumps({"finding": f.to_json_dict()}, sort_keys=True) + "\n")

    if args.catalog is not None:
        if args.n_min is not None:
            raise CliError("--n-min applies to --n-max sweeps, not to --catalog")
        summary = tg.search_catalog(prop, load_catalog(args.catalog), r_max=args.r_max,
                                    budget=_budget(args), on_finding=on_finding)
    else:
        summary = tg.search_trees(prop, args.n_max, r_max=args.r_max, budget=_budget(args),
                                  n_min=2 if args.n_min is None else args.n_min,
                                  on_finding=on_finding)
    stream.write(json.dumps({"summary": summary.to_json_dict()}, sort_keys=True) + "\n")
    return EXIT_BUDGET if summary.budget_exceeded else EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code.

    With --out the command writes to a temporary file beside the target,
    which replaces the target only once the command returns, so a command
    that fails leaves an existing file as it was.
    """
    if not args.out:
        return args.run(args, sys.stdout)
    tmp = f"{args.out}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            code = args.run(args, fh)
        os.replace(tmp, args.out)
    except BaseException:
        os.remove(tmp)
        raise
    return code


# -- argument parsing ----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ekrkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, run_, graph=False, r=None, budget=False, fmt=("json", "text")):
        """Subcommand `name` run by `run_`; r is None, "optional" or "required";
        fmt lists the --format choices, default first (none: no --format)."""
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(run=run_)
        if graph:
            sp.add_argument("--graph", required=True,
                            help="generator (e.g. spider:2,3,4) or graph file")
        if r is not None:
            sp.add_argument("--r", type=int, required=r == "required", help="set size")
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help=f"search node budget (default {vf.DEFAULT_MAX_NODES})")
        sp.add_argument("--out", default=None, help="write output to this file")
        if fmt:
            sp.add_argument("--format", dest="fmt", choices=fmt, default=fmt[0])
        return sp

    sp = add("count", "count independent r-sets", _run_count, graph=True, r="required")
    sp.add_argument("--anchor", type=int, default=None, help="count only sets containing this vertex")
    sp.add_argument("--forbid", default="", help="comma-separated vertices excluded from sets")
    sp.add_argument("--method", default="auto",
                    choices=("auto", fam.ENUMERATION, fam.TREE_DP, fam.CLOSED_FORM))

    sp = add("star", "star sizes s_r(v)", _run_star, graph=True, r="required")
    sp.add_argument("--vertex", type=int, default=None, help="single vertex (default: all)")

    add("ekr", "exact EKR verdict", _run_verdict, graph=True, r="required", budget=True)
    add("strict-ekr", "exact strict-EKR verdict", _run_verdict, graph=True, r="required",
        budget=True)
    add("nonuniform-ekr", "EKR verdict over all set sizes at once", _run_verdict,
        graph=True, budget=True)
    add("hk", "is the max star on a leaf of this tree?", _run_hk, graph=True, r="required")

    sp = add("spider-order", "canonical leg order, optionally star-size checks",
             _run_spider_order, r="optional")
    sp.add_argument("--legs", required=True, help="comma-separated leg lengths")

    sp = add("bounds", "closed-form bounds and theorem applicability", _run_bounds,
             r="optional")
    kind = sp.add_mutually_exclusive_group(required=True)
    kind.add_argument("--theorem", choices=bnd.THEOREM_READS)
    kind.add_argument("--formula", choices=("ekr", "hm", "frankl", "claim-star"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--d", type=int, default=None, help="max degree parameter")
    sp.add_argument("--s", type=int, default=None, help="split-vertex count parameter")
    sp.add_argument("--c", default=None, help="edge-density parameter (rational, e.g. 1/2)")

    sp = add("grid", "inequality grid suites", _run_grid, fmt=("csv", "json"))
    sp.add_argument("--suite", default="all", choices=bnd.GRID_SUITES + ("all",))

    sp = add("peel", "high-degree peeling with certificates", _run_peel, graph=True,
             r="optional")
    sp.add_argument("--threshold", type=int, required=True)
    sp.add_argument("--c", default=None, help="density used for the t-bound checks")

    hk = add("search-hk", "leaf-star sweep over one free tree per class; reports the "
             "labeled tree count", _run_search, fmt=())
    hk.add_argument("--n-max", type=int, required=True)
    hk.set_defaults(catalog=None, budget=None)  # hk checks run no search
    ekr = add("search-ekr", "EKR sweep over one free tree per class (reports the labeled "
              "tree count) or over a catalog", _run_search, budget=True, fmt=())
    source = ekr.add_mutually_exclusive_group(required=True)
    source.add_argument("--n-max", type=int)
    source.add_argument("--catalog", help="file of graphs (generator strings or graph6 lines)")
    for sp in (hk, ekr):
        sp.add_argument("--n-min", type=int, default=None,
                        help="smallest tree size of an --n-max sweep (default 2)")
        sp.add_argument("--r-max", type=int, default=None)
    return p


def main(argv=None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. `| head`): exit quietly,
        # pointing stdout at devnull so interpreter shutdown can flush safely
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_OK
    except (OSError, ValueError) as exc:  # CliError and GraphError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
