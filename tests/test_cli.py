import argparse
import hashlib
import inspect
import io
import json
import tracemalloc

import pytest

import ekrkit
import ekrkit.bounds as bounds
import ekrkit.cli as cli
from ekrkit.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_main(capsys, *argv)
    assert err == "", err
    return code, json.loads(out)


# -- worked examples -----------------------------------------------------------

def test_count_example(capsys):
    code, payload = run_json(capsys, "count", "--graph", "path:5", "--r", "2")
    assert code == 0
    assert payload["count"] == 6
    assert payload["method"] == "closed-form" or payload["count"] == 6


def test_count_text_format_is_bare(capsys):
    code, out, err = run_main(capsys, "count", "--graph", "path:5", "--r", "2",
                              "--format", "text")
    assert code == 0 and out == "6\n"


# --format text writes an inner list (witness set, peeled pair, condition) on one line
TEXT_GOLDENS = [
    ("ekr --graph kpartite:3,3 --r 2",
     "graph: kpartite:3,3\nmax_intersecting_size: 3\nmax_star_size: 2\nmax_star_vertex: 0\n"
     "nodes_explored: 3\nr: 2\nverdict: not_ekr\nwitness:\n  0 1\n  0 2\n  1 2\n"),
    ("peel --graph star:9 --threshold 6",
     "certificates_ok: True\ngraph: star:9\nkept:\n"
     + "".join(f"  {v}\n" for v in range(1, 10))
     + "n: 10\nremoved:\n  0 9\nresidual_graph6: H??????\nt: 1\nthreshold: 6\n"),
    ("bounds --theorem T6 --n 200 --s 2 --r 5",
     "admissible_r:\n" + "".join(f"  {r}\n" for r in range(5, 10))
     + "hypothesis:\n  applicable: True\n  conditions:\n    0 < s < r/2 True\n"
     "    r <= sqrt(n ln c) - ln(c)/2, c = 2 - 2s/r True\n  r: 5\n"
     "  threshold_r: 5.947407873095769\nn: 200\nr_max: 9\ntheorem: T6\n"
     "threshold: 5.947407873095769\n"),
]


@pytest.mark.parametrize("command,text", TEXT_GOLDENS, ids=[g[0] for g in TEXT_GOLDENS])
def test_text_format_goldens(capsys, command, text):
    code, out, err = run_main(capsys, *command.split(), "--format", "text")
    assert (code, out, err) == (0, text, "")


def test_ekr_example(capsys):
    code, payload = run_json(capsys, "ekr", "--graph", "spider:2,2,2", "--r", "2")
    assert code == 0
    assert payload["verdict"] == "ekr"
    assert payload["max_star_size"] == 5
    assert payload["max_intersecting_size"] == 5


def test_bounds_theorem_example(capsys):
    code, payload = run_json(capsys, "bounds", "--theorem", "T5", "--n", "16")
    assert code == 0
    assert payload["r_max"] == 2
    assert payload["admissible_r"] == [1, 2]
    assert payload["threshold"].startswith("2.983")


def test_bounds_theorem_with_r(capsys):
    code, payload = run_json(capsys, "bounds", "--theorem", "T5", "--n", "16",
                             "--r", "3")
    assert code == 0
    assert payload["hypothesis"]["applicable"] is False
    code, payload = run_json(capsys, "bounds", "--theorem", "T6", "--n", "143",
                             "--s", "2", "--r", "5")
    assert payload["hypothesis"]["applicable"] is True


def test_bounds_formula(capsys):
    code, payload = run_json(capsys, "bounds", "--formula", "hm", "--n", "9",
                             "--r", "4")
    assert code == 0 and payload["value"] == 53
    code, payload = run_json(capsys, "bounds", "--formula", "claim-star",
                             "--n", "10", "--r", "3", "--d", "3")
    assert code == 0 and payload["value"] == "14"


def test_bounds_argument_validation(capsys):
    code, out, err = run_main(capsys, "bounds", "--n", "16")
    assert code == 1 and err.startswith("error:")
    code, out, err = run_main(capsys, "bounds", "--theorem", "T5",
                              "--formula", "hm", "--n", "16", "--r", "2")
    assert code == 1
    code, out, err = run_main(capsys, "bounds", "--theorem", "T99", "--n", "16")
    assert code == 1
    # each theorem reads n and r plus its bounds.THEOREM_READS entry; of the
    # formulas only claim-star reads --d; any other --d, --s or --c is an error
    for argv, unread in [
        (["--theorem", "T6", "--n", "143", "--s", "2", "--r", "5", "--d", "4", "--c", "1/2"],
         "--d, --c"),
        (["--theorem", "T3", "--n", "100", "--d", "2", "--s", "1"], "--s"),
        (["--theorem", "T2-avg", "--n", "145", "--c", "1", "--d", "2"], "--d"),
        (["--theorem", "T5", "--n", "16", "--s", "2"], "--s"),
        (["--theorem", "T8", "--n", "145", "--c", "1"], "--c"),
        (["--formula", "hm", "--n", "9", "--r", "4", "--d", "2"], "--d"),
        (["--formula", "ekr", "--n", "9", "--r", "4", "--s", "2"], "--s"),
        (["--formula", "claim-star", "--n", "9", "--r", "4", "--d", "2", "--c", "1"], "--c"),
    ]:
        code, out, err = run_main(capsys, "bounds", *argv)
        assert code == 1 and out == "", argv
        assert err == f"error: {argv[1]} does not read {unread}\n", err
    option = {"d": "--d", "s": "--s", "c_density": "--c"}
    for theorem, reads in bounds.THEOREM_READS.items():
        argv = ["--theorem", theorem, "--n", "400", "--r", "2"]
        for name in reads[1:]:  # every entry starts with n
            argv += [option[name], "2"]
        code, payload = run_json(capsys, "bounds", *argv)
        assert code == 0 and payload["theorem"] == theorem


# -- remaining commands -----------------------------------------------------------

def test_star_all_vertices(capsys):
    code, payload = run_json(capsys, "star", "--graph", "spider:2,2,2", "--r", "2")
    assert code == 0
    assert payload["star_sizes"] == [3, 4, 5, 4, 5, 4, 5]
    assert payload["max_size"] == 5 and payload["max_vertex"] == 2


def test_star_single_vertex(capsys):
    code, payload = run_json(capsys, "star", "--graph", "path:10", "--r", "3",
                             "--vertex", "0")
    assert code == 0 and payload["size"] == 21


def test_count_methods_and_restrictions(capsys):
    code, payload = run_json(capsys, "count", "--graph", "path:10", "--r", "3",
                             "--method", "closed-form")
    assert code == 0 and payload["count"] == 56
    code, payload = run_json(capsys, "count", "--graph", "spider:2,2,2", "--r", "2",
                             "--method", "tree-dp")
    assert code == 0 and payload["count"] == 15  # C(7,2) minus the 6 edges
    code, payload = run_json(capsys, "count", "--graph", "spider:2,2,2", "--r", "2",
                             "--anchor", "2")
    assert code == 0 and payload["count"] == 5
    code, payload = run_json(capsys, "count", "--graph", "cycle:6", "--r", "2",
                             "--forbid", "0,1")
    assert code == 0 and payload["count"] == 3  # pairs within {2,3,4,5} minus edges
    # --forbid forces enumeration under auto: only {0,3} contains 0 and avoids 2
    for method in ("auto", "enumeration"):
        code, payload = run_json(capsys, "count", "--graph", "path:4", "--r", "2",
                                 "--anchor", "0", "--forbid", "2", "--method", method)
        assert code == 0 and payload["count"] == 1 and payload["method"] == "enumeration"
    for method in ("auto", "enumeration", "tree-dp"):  # r above n: no sets
        for anchor in ([], ["--anchor", "1"]):
            code, payload = run_json(capsys, "count", "--graph", "path:4", "--r", "7",
                                     *anchor, "--method", method)
            assert code == 0 and payload["count"] == 0
    for anchor in ([], ["--anchor", "0"]):
        code, out, err = run_main(capsys, "count", "--graph", "path:4", "--r", "2",
                                  *anchor, "--forbid", "2", "--method", "tree-dp")
        assert code == 1 and out == "" and err.startswith("error:"), err
    code, out, err = run_main(capsys, "count", "--graph", "path:5", "--r", "2",
                              "--method", "closed-form", "--anchor", "0")
    assert code == 1
    code, out, err = run_main(capsys, "count", "--graph", "cycle:5", "--r", "2",
                              "--method", "closed-form")
    assert code == 1


def test_strict_ekr_command(capsys):
    code, payload = run_json(capsys, "strict-ekr", "--graph", "empty:7", "--r", "3")
    assert code == 0 and payload["verdict"] == "strictly_ekr"
    code, payload = run_json(capsys, "strict-ekr", "--graph", "empty:6", "--r", "3")
    assert code == 0 and payload["verdict"] == "ekr"


def test_not_ekr_still_exits_zero(capsys):
    code, payload = run_json(capsys, "ekr", "--graph", "kpartite:3,3", "--r", "2")
    assert code == 0
    assert payload["verdict"] == "not_ekr"
    assert payload["witness"] == [[0, 1], [0, 2], [1, 2]]


def test_nonuniform_command(capsys):
    code, payload = run_json(capsys, "nonuniform-ekr", "--graph", "empty:4")
    assert code == 0 and payload["max_intersecting_size"] == 8
    assert payload["r"] is None


def test_hk_command(capsys):
    code, payload = run_json(capsys, "hk", "--graph", "path:6", "--r", "2")
    assert code == 0 and payload["holds"] is True and payload["best_is_leaf"] is True


def test_spider_order_command(capsys):
    code, payload = run_json(capsys, "spider-order", "--legs", "3,2,4,1")
    assert code == 0
    assert payload["order"] == [3, 0, 2, 1]
    assert payload["ordered_legs"] == [1, 3, 4, 2]
    code, payload = run_json(capsys, "spider-order", "--legs", "2,2,2", "--r", "2")
    assert code == 0 and payload["ok"] is True
    for r in ("4", "0"):  # beyond alpha = 3, and below 1: no star to compare
        code, out, err = run_main(capsys, "spider-order", "--legs", "1,1,1", "--r", r)
        assert code == 1 and out == "" and err.startswith("error:"), err


def test_grid_csv_and_json(capsys):
    code, out, err = run_main(capsys, "grid", "--suite", "hm-identity")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem-id,parameters,lhs,rhs,holds"
    assert all(ln.endswith(",true") for ln in lines[1:])
    code, payload = run_json(capsys, "grid", "--suite", "hm-identity",
                             "--format", "json")
    assert code == 0 and payload["all_hold"] is True
    assert payload["rows"][0]["theorem_id"] == "hm-identity"


def test_grid_all_csv_is_pinned(tmp_path):
    # the streamed CSV must keep the exact bytes of the list-building writer
    target = tmp_path / "grid.csv"
    assert main(["grid", "--suite", "all", "--out", str(target)]) == 0
    data = target.read_bytes()
    assert data.count(b"\n") - 1 == 368_316
    assert hashlib.sha256(data).hexdigest() == (
        "afbd96a35e13b17a3154681e7dc805ad87ade37b41f84c7e2e83a942203d3763")


def test_grid_csv_memory_stays_small(tmp_path):
    # import mpmath outside the trace
    bounds.hypothesis("T5", bounds.BoundQuery(n=10, r=1)).threshold_r
    tracemalloc.start()
    try:
        assert main(["grid", "--suite", "binoms", "--out", str(tmp_path / "b.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"grid --suite binoms peaked at {peak / 2 ** 20:.1f} MiB"


def test_grid_json_memory_stays_small(tmp_path):
    # degree-product writes 1.6 MiB of JSON; holding its rows took about 15 MiB
    tracemalloc.start()
    try:
        assert main(["grid", "--suite", "degree-product", "--format", "json",
                     "--out", str(tmp_path / "d.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, f"grid --suite degree-product peaked at {peak / 2 ** 20:.1f} MiB"


def test_grid_json_matches_json_dumps():
    # the streamed writer keeps the bytes of json.dumps on the whole document
    rows = bounds.run_grid("hm-identity")
    doc = {"suite": "hm-identity", "rows": [r._asdict() for r in rows],
           "all_hold": all(r.holds for r in rows)}
    out = io.StringIO()
    bounds.write_grid_json("hm-identity", out)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["--theorem", "T3", "--n", "10", "--d", "0"],
    ["--theorem", "T3", "--n", "10", "--d", "-1"],
    ["--theorem", "T5", "--n", "-5"],
    ["--theorem", "T6", "--n", "-5", "--s", "1"],
    ["--theorem", "T5", "--n", "16", "--r", "0"],
    ["--theorem", "T5", "--n", "16", "--r", "-3"],
])
def test_bounds_rejects_degenerate_parameters(capsys, argv):
    code, out, err = run_main(capsys, "bounds", *argv)
    assert code == 1 and out == ""
    name = "d" if "--d" in argv else "r" if "--r" in argv else "n"
    assert err.startswith("error: ") and f"{name}=" in err, err


def test_peel_command(capsys):
    code, payload = run_json(capsys, "peel", "--graph", "star:9",
                             "--threshold", "6", "--c", "1", "--r", "2")
    assert code == 0
    assert payload["t"] == 1
    assert payload["removed"] == [[0, 9]]
    assert payload["certificates_ok"] is True
    assert payload["bound_checks"] == {
        "edges_sparse": True, "residual_bound": True,
        "t_bound": True, "threshold_matches": True}


def test_search_hk_stream(capsys):
    code, out, err = run_main(capsys, "search-hk", "--n-max", "5")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(lines) == 1  # no findings, summary only
    summary = lines[-1]["summary"]
    assert summary["findings"] == [] and summary["unique_graphs"] == 7


def test_search_ekr_stream_and_catalog(capsys, tmp_path):
    code, out, err = run_main(capsys, "search-ekr", "--n-max", "4")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert "finding" in lines[0] and "summary" in lines[-1]
    assert lines[0]["finding"]["verdict"] == "not_ekr"
    cat = tmp_path / "catalog.txt"
    cat.write_text("# control pair\nkpartite:3,3\nEFz_\n", encoding="ascii")
    code, out, err = run_main(capsys, "search-ekr", "--catalog", str(cat),
                              "--r-max", "2")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    findings = [ln["finding"] for ln in lines if "finding" in ln]
    assert len(findings) == 2  # both lines describe the same graph
    assert all(f["verdict"] == "not_ekr" for f in findings)


# -- exit codes, determinism, IO -------------------------------------------------

def test_input_error_exit_code(capsys):
    code, out, err = run_main(capsys, "ekr", "--graph", "dodecahedron:1", "--r", "2")
    assert code == 1 and err.startswith("error:")
    code, out, err = run_main(capsys, "count", "--graph", "path:5")
    assert code == 1
    code, out, err = run_main(capsys, "ekr", "--graph", "path:5", "--r", "9")
    assert code == 1
    code, out, err = run_main(capsys, "ekr", "--graph", "tristar:20000", "--r", "2")
    assert (code, err) == (1, "error: tristar:20000 exceeds the 128-vertex limit\n")


def test_budget_exit_code(capsys):
    code, payload = run_json(capsys, "ekr", "--graph", "empty:9", "--r", "4",
                             "--budget", "1")
    assert code == 2 and payload["verdict"] == "budget_exceeded"
    code, out, err = run_main(capsys, "search-ekr", "--n-max", "6", "--budget", "1")
    assert code == 2


def test_deterministic_output(capsys):
    _, first, _ = run_main(capsys, "ekr", "--graph", "spider:3,3,3", "--r", "3")
    _, second, _ = run_main(capsys, "ekr", "--graph", "spider:3,3,3", "--r", "3")
    assert first == second
    _, g1, _ = run_main(capsys, "grid", "--suite", "binoms")
    _, g2, _ = run_main(capsys, "grid", "--suite", "binoms")
    assert g1 == g2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, err = run_main(capsys, "count", "--graph", "path:5", "--r", "2",
                              "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["count"] == 6


def test_failed_command_keeps_existing_out_file(capsys, tmp_path):
    target = tmp_path / "keep.json"
    target.write_bytes(b'{"count": 6}\n')
    code, out, err = run_main(capsys, "count", "--graph", str(tmp_path / "nope.g6"),
                              "--r", "2", "--out", str(target))
    assert code == 1 and err.startswith("error:")
    assert target.read_bytes() == b'{"count": 6}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]
    code, out, err = run_main(capsys, "count", "--graph", "path:5", "--r", "3",
                              "--out", str(target))
    assert code == 0 and json.loads(target.read_text())["count"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]


def test_graph_file_loading(capsys, tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("# a path on four vertices\n0 1\n1 2\n2 3\n", encoding="ascii")
    code, payload = run_json(capsys, "count", "--graph", str(edges), "--r", "2")
    assert code == 0 and payload["count"] == 3
    g6 = tmp_path / "g.g6"
    g6.write_text("EFz_\n", encoding="ascii")
    code, payload = run_json(capsys, "ekr", "--graph", str(g6), "--r", "2")
    assert code == 0 and payload["verdict"] == "not_ekr"
    code, out, err = run_main(capsys, "count", "--graph", str(tmp_path / "no.g6"),
                              "--r", "2")
    assert code == 1


def test_broken_pipe_exits_quietly(monkeypatch):
    import os

    class ClosedPipe:
        def write(self, _):
            raise BrokenPipeError

        def fileno(self):
            return os.open(os.devnull, os.O_WRONLY)

    monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
    assert main(["grid", "--suite", "hm-identity"]) == 0


def test_unknown_command_is_an_input_error(capsys):
    code, out, err = run_main(capsys, "mystery")
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "path:5", "--r", "2", "--out", "{missing}/x.json"],
    ["count", "--graph", "{dir}", "--r", "2"],
    ["search-ekr", "--catalog", "{dir}"],
    ["search-ekr", "--catalog", "{missing}/catalog.txt"],
])
def test_file_errors_are_input_errors(capsys, tmp_path, argv):
    argv = [a.format(dir=tmp_path, missing=tmp_path / "missing") for a in argv]
    code, out, err = run_main(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ["hk", "--graph", "path:5"],
    ["search-hk"],
    ["search-hk", "--n-max", "5", "--budget", "3"],  # hk checks run no search
    ["search-ekr"],
    ["search-ekr", "--n-max", "3", "--catalog", "catalog.txt"],
    ["search-hk", "--n-max", "3", "--format", "text"],  # sweeps print JSON lines only
    ["search-ekr", "--n-max", "3", "--format", "text"],
    ["search-hk", "--n-max", "3", "--format", "json"],  # ... and take no --format
    ["search-ekr", "--n-max", "3", "--format", "json"],
    ["grid", "--suite", "hm-identity", "--format", "text"],  # csv or json
    ["bounds", "--theorem", "T5", "--n", "16", "--k", "3"],
    ["search-ekr", "--catalog", "catalog.txt", "--n-min", "3"],
    ["peel", "--graph", "star:9", "--threshold", "6", "--c", "1"],  # --c needs --r
    ["peel", "--graph", "star:9", "--threshold", "6", "--r", "2"],
    *(["count", "--graph", "path:4", "--r", "-1", "--method", m]
      for m in ("auto", "enumeration", "tree-dp")),
    ["count", "--graph", "path:4", "--r", "2", "--anchor", "9", "--method", "enumeration"],
    ["count", "--graph", "path:4", "--r", "2", "--anchor", "-1", "--method", "enumeration"],
    ["count", "--graph", "path:4", "--r", "2", "--forbid", "-1"],
    ["count", "--graph", "path:4", "--r", "2", "--forbid", "9"],
    ["count", "--graph", "path:4", "--r", "2", "--anchor", "1", "--forbid", "1"],
    *([cmd, "--n-max", "3", "--r-max", r] for cmd in ("search-hk", "search-ekr")
      for r in ("0", "-1")),
    ["search-hk", "--n-max", "3", "--n-min", "0"],
    ["peel", "--graph", "star:9", "--threshold", "6", "--c", "1", "--r", "0"],
    ["peel", "--graph", "star:9", "--threshold", "6", "--c", "1/0", "--r", "1"],
    ["peel", "--graph", "star:9", "--threshold", "6", "--c", "1", "--r", "-1"],
    ["bounds", "--theorem", "T2-avg", "--n", "10", "--c", "1/0", "--r", "1"],
    ["bounds", "--theorem", "T8", "--n", "1000000000000"],  # more r than rmax lists
    ["bounds", "--formula", "ekr", "--n", "10"],
    ["bounds", "--formula", "claim-star", "--n", "10", "--r", "2"],
])
def test_argument_errors_are_input_errors(capsys, monkeypatch, tmp_path, argv):
    (tmp_path / "catalog.txt").write_text("kpartite:3,3\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:"), err


@pytest.mark.parametrize("forbid,vertex", [("-1", "-1"), ("9", "9"), ("1,9", "9")])
def test_forbid_errors_name_the_vertex(capsys, forbid, vertex):
    code, out, err = run_main(capsys, "count", "--graph", "path:4", "--r", "2",
                              "--forbid", forbid)
    assert (code, out) == (1, "")
    assert err == f"error: need an int 0 <= forbid <= 3, got forbid={vertex}\n"


# every subcommand's options, with the choices of those that have them: a
# settable value added or dropped shows up here
OPTIONS = {
    "count": ["--anchor", "--forbid", "--format=json|text", "--graph",
              "--method=auto|enumeration|tree-dp|closed-form", "--out", "--r"],
    "star": ["--format=json|text", "--graph", "--out", "--r", "--vertex"],
    "ekr": ["--budget", "--format=json|text", "--graph", "--out", "--r"],
    "strict-ekr": ["--budget", "--format=json|text", "--graph", "--out", "--r"],
    "nonuniform-ekr": ["--budget", "--format=json|text", "--graph", "--out"],
    "hk": ["--format=json|text", "--graph", "--out", "--r"],
    "spider-order": ["--format=json|text", "--legs", "--out", "--r"],
    "bounds": ["--c", "--d", "--format=json|text", "--formula=ekr|hm|frankl|claim-star",
               "--n", "--out", "--r", "--s", "--theorem=T3|T2-avg|T5|T6|T8"],
    "grid": ["--format=csv|json", "--out",
             "--suite=degree-product|binoms|binoms2|hm-identity|estimates|all"],
    "peel": ["--c", "--format=json|text", "--graph", "--out", "--r", "--threshold"],
    "search-hk": ["--n-max", "--n-min", "--out", "--r-max"],
    "search-ekr": ["--budget", "--catalog", "--n-max", "--n-min", "--out", "--r-max"],
}


def test_subcommand_options_are_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(a.option_strings[0] + ("=" + "|".join(a.choices) if a.choices else "")
                        for a in sp._actions if a.option_strings and a.dest != "help")
           for name, sp in sub.choices.items()}
    assert got == OPTIONS


# every public name of the package: adding or removing one changes this list
PUBLIC_NAMES = [
    "Applicability", "BUDGET_EXCEEDED", "BoundQuery", "CountResult", "EKR", "EkrReport",
    "GeneratorError", "Graph", "Graph6Error",
    "GraphError", "GridRow", "HkReport", "IneqResult", "MAX_VERTICES", "NOT_EKR",
    "PathMerge", "PeelReport", "STRICTLY_EKR", "SearchBudget", "SpiderOrderReport",
    "SpiderSpec", "SweepFinding", "SweepSummary", "all_independent_sets",
    "automorphism_generators", "big_star_lower", "binom", "binoms2_ineq_check",
    "binoms_ineq_check", "bit_list", "bounds", "check_degree_product",
    "check_exp_linear", "check_one_minus_exp", "claim_star_lower", "count_path_rsets",
    "count_rsets", "ekr_bound", "emit_graph6", "enum_independent_rsets", "families",
    "frankl_bound", "free_trees", "generate", "graphs", "hm_bound", "hm_bound_sum_form",
    "hm_identity_check", "hypothesis", "indep_size_counts", "indep_size_counts_tree_dp",
    "is_intersecting", "is_r_ekr", "is_r_hk", "is_strictly_r_ekr", "iter_bits",
    "mask_of", "max_independent_set_size", "max_nonstar_intersecting", "merge_paths",
    "merge_tree_paths", "min_maximal_independent_set_size", "nonuniform_ekr",
    "parse_edge_list", "parse_graph6", "peel", "peel_bound_check",
    "peel_certificates_ok", "read_graph6_lines", "rmax", "run_grid",
    "search_catalog", "search_trees", "spider_order", "spider_order_check",
    "spider_star_lower", "split_star_lower", "splitstar_witness", "star_center",
    "star_size", "star_vector_tree_dp", "star_vectors_tree_dp", "tree_certificate",
    "treegen", "verify", "write_grid_csv", "write_grid_json",
]


def test_public_names_are_pinned():
    assert sorted(ekrkit.__all__) == PUBLIC_NAMES


# the parameters of every public callable, without annotations: adding, removing
# or renaming a parameter or changing a default changes this table; the exception
# classes inherit a constructor that inspect cannot read
PUBLIC_SIGNATURES = {
    'Applicability': '(theorem, applicable, conditions, n=None, c=None)',
    'BoundQuery': '(n=None, r=None, d=None, c_density=None, s=None)',
    'CountResult': '(count, method)',
    'EkrReport': ('(r, verdict, max_star_vertex, max_star_size, max_intersecting_size, '
                  'witness, nodes_explored)'),
    'GeneratorError': None,
    'Graph': "(n, edges=(), label='')",
    'Graph6Error': '(kind, message)',
    'GraphError': None,
    'GridRow': '(theorem_id, parameters, lhs, rhs, holds)',
    'HkReport': '(r, holds, best_vertex, best_is_leaf, star_sizes)',
    'IneqResult': '(name, params, lhs, rhs, holds, hypothesis_ok, boundary=False)',
    'PathMerge': '(graph, order, junctions, source, removed, marked_position=-1)',
    'PeelReport': '(source, threshold, t, removed, kept, residual)',
    'SearchBudget': '(max_nodes=10000000)',
    'SpiderOrderReport': '(r, legs, order, ok, violations, star_sizes)',
    'SpiderSpec': '(legs)',
    'SweepFinding': '(n, r, certificate, graph6, verdict, detail)',
    'SweepSummary': ('(property, n_max, labeled_seen, unique_graphs, checks, findings, '
                     'budget_exceeded)'),
    'all_independent_sets': '(g)',
    'automorphism_generators': '(g, setwise=0)',
    'big_star_lower': '(n, r, d, k)',
    'binom': '(a, b)',
    'binoms2_ineq_check': '(n, r, s)',
    'binoms_ineq_check': '(n, r)',
    'bit_list': '(mask)',
    'check_degree_product': '(r, d, n)',
    'check_exp_linear': '(x, k)',
    'check_one_minus_exp': '(y, k)',
    'claim_star_lower': '(n, d, r)',
    'count_path_rsets': '(m, r)',
    'count_rsets': "(g, r, anchor=None, forbidden=0, method='auto')",
    'ekr_bound': '(n, r)',
    'emit_graph6': '(g)',
    'enum_independent_rsets': '(g, r)',
    'frankl_bound': '(n, r)',
    'free_trees': '(n)',
    'generate': '(spec)',
    'hm_bound': '(n, r)',
    'hm_bound_sum_form': '(n, r)',
    'hm_identity_check': '(n, r)',
    'hypothesis': '(theorem, q)',
    'indep_size_counts': '(g, anchor=None, forbidden=0, max_size=None)',
    'indep_size_counts_tree_dp': '(g)',
    'is_intersecting': '(family)',
    'is_r_ekr': '(g, r, budget=None)',
    'is_r_hk': '(t, r)',
    'is_strictly_r_ekr': '(g, r, budget=None)',
    'iter_bits': '(mask)',
    'mask_of': '(vertices)',
    'max_independent_set_size': '(g)',
    'max_nonstar_intersecting': '(g, r, budget=None)',
    'merge_paths': '(spec, mode)',
    'merge_tree_paths': '(t, removed)',
    'min_maximal_independent_set_size': '(g)',
    'nonuniform_ekr': '(g, budget=None)',
    'parse_edge_list': '(text)',
    'parse_graph6': '(text)',
    'peel': '(g, threshold)',
    'peel_bound_check': '(report, c, r)',
    'peel_certificates_ok': '(report)',
    'read_graph6_lines': '(text)',
    'rmax': '(theorem, q)',
    'run_grid': '(suite)',
    'search_catalog': '(prop, graphs, r_max=None, budget=None, on_finding=None)',
    'search_trees': '(prop, n_max, r_max=None, budget=None, n_min=2, on_finding=None)',
    'spider_order': '(legs)',
    'spider_order_check': '(spec, r)',
    'spider_star_lower': '(n, k, r)',
    'split_star_lower': '(n, s, r)',
    'splitstar_witness': '(merged, a_mask, junction=0)',
    'star_center': '(family)',
    'star_size': '(g, v, r)',
    'star_vector_tree_dp': '(g, v)',
    'star_vectors_tree_dp': '(g)',
    'tree_certificate': '(n, edges)',
    'write_grid_csv': '(suite, stream)',
    'write_grid_json': '(suite, stream)',
}


def _bare_signature(obj):
    try:
        sig = inspect.signature(obj)
    except ValueError:
        return None
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


def test_public_signatures_are_pinned():
    got = {name: _bare_signature(getattr(ekrkit, name))
           for name in sorted(ekrkit.__all__) if callable(getattr(ekrkit, name))}
    assert got == PUBLIC_SIGNATURES


# -- goldens: stdout bytes of every README command -------------------------------

# (argv, exit code, SHA-256 of stdout): bytes that no refactor of the CLI may
# change; "catalog.txt" holds the two lines `kpartite:3,3` and `EFz_`
GOLDENS = [
    ("count --graph path:5 --r 2", 0,
     "5ab936b9e607ac2f3f4dc2de18b8d0955e873d08626c6b8bf74bd7ddbd199737"),
    ("count --graph path:5 --r 2 --format text", 0,
     "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    ("star --graph spider:2,2,2 --r 2", 0,
     "17b239aa2c504ea6d8b6ffc28aed43135bb6f35cc00440c8cd2023a57ca793fc"),
    # not a forest: every star of the 5-cycle counted on its own, all of size 2
    ("star --graph cycle:5 --r 2", 0,
     "8fa53fdc8901f51aa3a016283ea2b6f2aab4ec4c1eba2a2bf309568cfb7a4712"),
    ("ekr --graph spider:2,2,2 --r 2", 0,
     "0bb911709d316c1ccd198a984164e25922a4170004bc2990fb78ed34c720435a"),
    ("ekr --graph kpartite:3,3 --r 2", 0,
     "ee0c10ad78d5085fd1cb964e993cee9f62c0278ce4e5efe764b9cc7e11a3f7b9"),
    ("strict-ekr --graph empty:7 --r 3", 0,
     "7e05ce05cb2e8e274a35434978a6ac76ac18f80d03aded249f834290fb3ad0b6"),
    ("nonuniform-ekr --graph empty:5", 0,
     "d86bf1752edb9fbba32a02b758b3c8fcc80fbb90a91d0cbb5d9753790c6a4b68"),
    ("hk --graph path:6 --r 2", 0,
     "151562129120bed988751ab89a31b82ca239a47ca14ce9a4b4bafe7409046cc2"),
    ("spider-order --legs 3,2,4,1", 0,
     "ca79cfac2662a8bd32d85eb934004c027adfe8f53da992973c14000579d93cfd"),
    ("spider-order --legs 2,2,2 --r 2", 0,
     "294eab2c43542d5e42e49e2f5a87985afe2e4304c5efa1f14f340104b2a24e1f"),
    ("bounds --theorem T5 --n 16", 0,
     "bd5c1e1bb2a0644d92f5fd8ebf6458d5b796b452a94665ee9033c9e0b7acccb4"),
    ("bounds --formula hm --n 9 --r 4", 0,
     "fbd86118a120e915573f2e852581e1f237fce4fca1d5cb02cab1b518fdde01f0"),
    ("grid --suite all", 0,
     "afbd96a35e13b17a3154681e7dc805ad87ade37b41f84c7e2e83a942203d3763"),
    ("peel --graph star:9 --threshold 6 --c 1 --r 2", 0,
     "2a71808ffb6658e61bdc02861ba10834f1d2b940e7b79acf8ec911778b247ff0"),
    ("search-hk --n-max 8 --r-max 4", 0,
     "9b86e0a2e494dcd2df1b21b8e6fc3bf5907715985bb91840a1bd781dac40b2e0"),
    ("search-ekr --catalog catalog.txt --r-max 3", 0,
     "c825595c5cdd289b45e2502b31bf69748b80664d98d97fb443f4be5de7c04277"),
    ("search-ekr --n-max 7 --r-max 3", 0,
     "43c06df69551d9e6d2384eb882cd79eb5c5de7056efe8251c80f932e6a2168d2"),
    # the counting policy under each --method, budget-exceeded verdicts and the
    # streamed grid JSON
    ("count --graph spider:2,2,2 --r 3 --method enumeration", 0,
     "0d10fe30c0191d95f54bea4ca86e1a7014171c989aabc40b6d2ca7335fc74e4d"),
    ("count --graph spider:2,2,2 --r 3 --method tree-dp", 0,
     "620445328fc4f9e0ea757a2895f47276662423cde078858faf52f533b05e065c"),
    ("count --graph path:10 --r 3 --method closed-form", 0,
     "9b5219bf793b1dbfe654fee3546c22fc3d963f2e002a13ad1021f97fd4b2bb8d"),
    ("count --graph spider:2,2,2 --r 2 --anchor 2", 0,
     "51df714b9f35208682a799f365cc111cc65849b850b5b4765e7af907ec729a3b"),
    ("count --graph spider:2,2,2 --r 2 --anchor 2 --method tree-dp", 0,
     "51df714b9f35208682a799f365cc111cc65849b850b5b4765e7af907ec729a3b"),
    ("count --graph spider:2,2,2 --r 2 --anchor 2 --method enumeration", 0,
     "f3e79e52c6dff6d78ae961bab5a471b329737403c14c4032141525733d286f82"),
    ("count --graph cycle:5 --r 2 --anchor 1", 0,
     "64c77bcefd5e5ae25af25d3d141bf280a97f6b9c88a151f2cc875ff16d2fb40a"),
    ("count --graph cycle:6 --r 2 --forbid 0,1", 0,
     "fdc97b1674130b9db6171c1b8c532136150ec9262a10f799ab9a6785c4c2475d"),
    ("count --graph path:4 --r 2 --anchor 0 --forbid 2", 0,
     "123cc2906e105bb7752373dfc319e516e6b1de582ff9320ff9bbff83f2164918"),
    ("count --graph path:4 --r 7 --anchor 1 --method tree-dp", 0,
     "93c715ab148080de3df07afa4fdf2dace89063549ff87882d00044fef9cd897d"),
    ("strict-ekr --graph kpartite:3,3 --r 2", 0,
     "ee0c10ad78d5085fd1cb964e993cee9f62c0278ce4e5efe764b9cc7e11a3f7b9"),
    ("ekr --graph empty:9 --r 4 --budget 1", 2,
     "2ba5a398594fb973d21791a4290147f67753729781c8705d9a9d9f24a385f94f"),
    ("nonuniform-ekr --graph empty:5 --budget 1", 0,
     "d86bf1752edb9fbba32a02b758b3c8fcc80fbb90a91d0cbb5d9753790c6a4b68"),
    ("nonuniform-ekr --graph path:6 --budget 1", 2,
     "c5eeee3e1d2765f57e2ac580313bfb250500fc63542444bda2c8f47a7d654fb6"),
    ("grid --suite estimates --format json", 0,
     "ca92f7d6eed65d6b0d9bb34db505191e1d90e483f63feb463dd9c7286630850c"),
]


class _Sha256Stdout:
    """Stand-in for sys.stdout that keeps only the digest of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


@pytest.mark.parametrize("command,code,digest", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_cli_goldens(monkeypatch, tmp_path, command, code, digest):
    (tmp_path / "catalog.txt").write_text("kpartite:3,3\nEFz_\n", encoding="ascii")
    monkeypatch.chdir(tmp_path)
    stdout = _Sha256Stdout()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    assert main(command.split()) == code
    assert stdout.digest.hexdigest() == digest
