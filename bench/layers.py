"""Per-layer metrics derived from the spans of a traced run.

A layer is one ekrkit module.  Its self time is the time inside its
functions' spans minus the time of their child spans.  Every figure is taken
per execution of an operation, the median over that operation's executions
is kept, and the medians are summed over operations, just as wall_s is.
"""
from __future__ import annotations

import statistics

from spans import GEN_FIRST, GEN_YIELDED, MODULES

SEARCH = {"verify.is_r_ekr", "verify.is_strictly_r_ekr", "verify.max_nonstar_intersecting",
          "verify.max_intersecting_family", "verify.nonuniform_ekr"}
ENUM = {"families.enum_independent_rsets", "families.all_independent_sets",
        "families.indep_size_counts", "families.count_independent_rsets"}
TREE_DP = {"families.star_size_tree_dp", "families.star_vector_tree_dp",
           "families.indep_size_counts_tree_dp", "families.star_size"}
TREE_DP_KERNELS = {"families.star_vector_tree_dp", "families.indep_size_counts_tree_dp"}
PRUFER = {"treegen.iter_labeled_trees", "treegen.prufer_decode"}
BUILD = {"graphs.Graph.__init__", "graphs.generate", "graphs.parse_graph6",
         "graphs.parse_edge_list", "graphs.read_graph6_lines"}

NS = 1e-9


class _Stats:
    __slots__ = ("count", "calls", "own_ns", "aux", "yielded", "top_ns")

    def __init__(self):
        self.count = self.calls = self.own_ns = self.aux = self.yielded = self.top_ns = 0


def _per_root(tracer) -> dict:
    """{root span: {name: _Stats}} over every span of the trace."""
    names, parent, name_of = tracer.names, tracer.parent, tracer.name
    start, end, aux = tracer.start, tracer.end, tracer.aux
    own = tracer.self_times()
    generators = tracer.generators
    roots = [0] * len(tracer)
    out: dict[int, dict] = {}
    for i in range(len(tracer)):
        p = parent[i]
        root = roots[i] = i if p < 0 else roots[p]
        nid = name_of[i]
        st = out.setdefault(root, {}).get(names[nid])
        if st is None:
            st = out[root][names[nid]] = _Stats()
        st.count += 1
        st.own_ns += own[i]
        if nid in generators:
            st.calls += bool(aux[i] & GEN_FIRST)
            st.yielded += aux[i] & GEN_YIELDED
        else:
            st.calls += 1
            st.aux += aux[i]
        if p < 0 or name_of[p] != nid:
            st.top_ns += end[i] - start[i]
    return out


def _execution(stats: dict) -> dict:
    def total(attr, names):
        return sum(getattr(stats[n], attr) for n in names if n in stats)

    def layer(prefix):
        return [n for n in stats if n.startswith(prefix + ".")]

    m = {f"{mod}.self_s": total("own_ns", layer(mod)) * NS for mod in MODULES}
    m["bench.self_s"] = total("own_ns", [n for n in stats if n.startswith("op:")]) * NS
    m["trace.spans"] = total("count", stats)
    m.update({
        "verify.calls": total("calls", layer("verify")),
        "verify.nodes": total("aux", SEARCH),
        "verify.hk_self_s": total("own_ns", ["verify.is_r_hk"]) * NS,
        "_search_s": total("own_ns", SEARCH) * NS,
        "families.enum_calls": total("calls", ENUM),
        "families.enum_sets": total("yielded", ENUM) + total("aux", ENUM),
        "families.enum_self_s": total("own_ns", ENUM) * NS,
        "families.tree_dp_calls": total("calls", TREE_DP_KERNELS),
        "families.tree_dp_self_s": total("own_ns", TREE_DP) * NS,
        "treegen.labeled_trees": total("yielded", ["treegen.iter_labeled_trees"]),
        "treegen.prufer_self_s": total("own_ns", PRUFER) * NS,
        "treegen.cert_calls": total("calls", ["treegen.tree_certificate"]),
        "treegen.cert_self_s": total("own_ns", ["treegen.tree_certificate"]) * NS,
        "_unique": total("aux", ["treegen.search_trees"]),
        "graphs.alpha_calls": total("calls", ["graphs.max_independent_set_size"]),
        "graphs.alpha_self_s": total("own_ns", ["graphs.max_independent_set_size"]) * NS,
        "graphs.build_self_s": total("own_ns", BUILD) * NS,
        "bounds.rows": total("aux", ["bounds.grid_to_csv"]),
        "_grid_s": total("top_ns", ["bounds.run_grid"]) * NS,
        "bounds.hypothesis_calls": total("calls", ["bounds.hypothesis"]),
        "bounds.hypothesis_self_s": total("own_ns", ["bounds.hypothesis"]) * NS,
        "bounds.csv_self_s": total("own_ns", ["bounds.grid_to_csv"]) * NS,
        "cli.calls": total("calls", layer("cli")),
    })
    return m


def metrics(tracer, setup_span: int, traced: dict, untraced_wall_s: float) -> dict:
    per_root = _per_root(tracer)
    by_label: dict[str, list] = {}
    for label, root in traced["roots"]:
        by_label.setdefault(label, []).append(_execution(per_root.get(root, {})))
    m = dict.fromkeys(_execution({}), 0)
    for runs in by_label.values():
        for key in m:
            m[key] += statistics.median(r[key] for r in runs)
    wall = sum(statistics.median(ts) for ts in traced["times"].values())
    search_s, unique, grid_s = m.pop("_search_s"), m.pop("_unique"), m.pop("_grid_s")
    nodes, labeled, rows = m["verify.nodes"], m["treegen.labeled_trees"], m["bounds.rows"]
    m["verify.us_per_node"] = search_s / nodes * 1e6 if nodes else 0.0
    m["treegen.unique_ratio"] = unique / labeled if labeled else 0.0
    m["bounds.rows_per_s"] = rows / grid_s if grid_s else 0.0
    m["cli.bytes_out"] = sum(rec.get("bytes_out", 0) for rec in traced["records"].values())
    setup = per_root.get(setup_span, {})
    m["graphs.setup_build_s"] = sum(setup[n].own_ns for n in BUILD if n in setup) * NS
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall - untraced_wall_s
    return m
