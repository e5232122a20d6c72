import argparse
import ast
import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.bounds import region_classify
from bohrlab.cli import build_parser, config_line, emit, parse_exponent, run


def capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def _csv_records(out: str) -> list[dict]:
    """A CSV artifact's rows, keyed by the header below its config line."""
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    return list(csv.DictReader(lines[1:]))


def test_parse_exponent():
    assert parse_exponent("inf") == math.inf
    assert parse_exponent("4/3") == pytest.approx(4 / 3)
    assert parse_exponent("2") == 2.0
    with pytest.raises(Exception):
        parse_exponent("0.5")


def test_enumerate_csv(capsys):
    code, out = capture(capsys, ["enumerate", "--m", "2", "--n", "2",
                                 "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "index,exponents,multiplicity"
    body = _csv_records(out)
    assert [b["exponents"] for b in body] == ["2;0", "1;1", "0;2"]
    assert [b["multiplicity"] for b in body] == ["1", "2", "1"]


def test_enumerate_many_variables(capsys):
    code, out = capture(capsys, ["enumerate", "--m", "1", "--n", "1500",
                                 "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 1500


def test_enumerate_lambda_k_many_variables(capsys):
    code, out = capture(capsys, ["enumerate", "--set", "lambda_k", "--m", "1",
                                 "--n", "1500", "--k", "1", "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 1500


def test_enumerate_j_long_tuples(capsys):
    code, out = capture(capsys, ["enumerate", "--set", "j", "--m", "1200", "--n", "1",
                                 "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines()[2:] == [f"0,{';'.join(['1'] * 1200)},1"]


def test_enumerate_j_json(capsys):
    code, out = capture(capsys, ["enumerate", "--m", "2", "--n", "2",
                                 "--set", "j", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert [r["exponents"] for r in doc["result"]] == [[1, 1], [1, 2], [2, 2]]


def test_bound_region(capsys):
    code, out = capture(capsys, ["bound", "region", "--p", "inf", "--q", "inf"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["region"] == "II"
    assert doc["rate"] == "sqrt(log n)/sqrt(n)"


def test_bound_region_labels_one_rate_one_way(capsys):
    # p = q >= 2 is the rate sqrt(log n)/sqrt(n) in region II, and every
    # exponent a label prints parses back to region_classify's float
    def rate(p, q):
        code, out = capture(capsys, ["bound", "region", "--p", p, "--q", q])
        assert code == 0
        return json.loads(out)["result"]["rate"]

    assert {rate(p, p) for p in ("2", "3", "4", "5", "inf")} == {"sqrt(log n)/sqrt(n)"}
    for p, q in [("3/2", "3/2"), ("3", "2"), ("5", "4"), ("inf", "4"), ("6", "3"), ("10", "5"),
                 ("3/2", "4"), ("1", "inf"), ("4", "4/3"), ("2", "1"), ("4/3", "5/4")]:
        rep = region_classify(parse_exponent(p), parse_exponent(q))
        exps = {"1": (0.0, 0.0), "sqrt(log n)/sqrt(n)": (0.5, 0.5)}.get(label := rate(p, q))
        if exps is None:
            log_exp, n_exp = re.fullmatch(r"log\(n\)\^(.+)/n\^(.+)", label).groups()
            exps = (float(n_exp), float(log_exp))
        assert exps == (rep.n_exponent, rep.log_exponent), (p, q, label)


def test_bound_jsum(capsys):
    code, out = capture(capsys, ["bound", "jsum", "--m", "3", "--n", "2",
                                 "--p", "2", "--q", "4/3"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(2.5)


def test_bound_jsum_names_the_generating_function(capsys):
    # the sum is 7 exactly; the generating function's float is an ulp above,
    # so the label names the route, not an exact value
    code, out = capture(capsys, ["bound", "jsum", "--m", "3", "--n", "4", "--p", "2",
                                 "--q", "4/3", "--format", "csv"])
    assert code == 0
    [row] = _csv_records(out)
    assert row["provenance"] == "generating function"
    assert float(row["value"]) == pytest.approx(7.0, rel=1e-15)


def test_norm_roundtrip(tmp_path, capsys):
    poly = {"n": 2, "m": 2, "terms": [{"alpha": [1, 1], "re": 1.0, "im": 0.0}]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(poly))
    code, out = capture(capsys, ["norm", "--poly", str(f), "--p", "2",
                                 "--restarts", "8"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(0.5, abs=1e-9)


def test_poly_artifact_feeds_norm(tmp_path, capsys):
    f = tmp_path / "p.json"
    assert run(["poly", "sign", "--m", "2", "--n", "2", "--out", str(f)]) == 0
    code, out = capture(capsys, ["norm", "--poly", str(f), "--restarts", "8"])
    assert code == 0
    assert json.loads(out)["result"]["value"] > 0


def test_series_artifact_feeds_wiener(tmp_path, capsys):
    f = tmp_path / "s.json"
    assert run(["poly", "random", "--n", "2", "--M", "2", "--out", str(f)]) == 0
    code, out = capture(capsys, ["bohr", "wiener", "--series", str(f), "--p", "2",
                                 "--restarts", "8", "--iters", "60"])
    assert code == 0
    assert [r["m"] for r in json.loads(out)["result"]["rows"]] == [1, 2]


@pytest.mark.parametrize("argv, kind", [
    (["poly", "sign", "--m", "1", "--n", "2"], "poly sign"),
    (["bound", "region", "--p", "2", "--q", "2"], "bound region"),
    (["witness", "search", "--m", "1", "--n", "2", "--p", "2",
      "--budget", "10", "--restarts", "2", "--iters", "5"], "witness search"),
])
def test_csv_on_json_only_kind_exits_2(tmp_path, capsys, argv, kind):
    out = tmp_path / "artifact"
    assert run(argv + ["--format", "csv", "--out", str(out)]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not out.exists()  # rejected before --out is opened
    assert "format" not in {a.dest for a in dict(LEAVES)[kind]._actions}


def test_format_is_offered_only_where_csv_exists():
    offering = {path for path, sp in LEAVES if any(a.dest == "format" for a in sp._actions)}
    assert offering == {"enumerate", "bound jsum", "bound chiupper", "bound envelope",
                        "bound rate", "bound bayart", "bohr table", "sweep"}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--m", "1", "--n", "2", "--restarts", "4"],
    ["bound", "jsum", "--m", "2", "--n", "2", "--p", "2", "--q", "2", "--iters", "4"],
    ["bound", "jsum", "--m", "2", "--n", "2", "--p", "2", "--q", "2", "--method", "naive"],
    ["poly", "sign", "--m", "1", "--n", "2", "--restarts", "4"],
    ["selftest", "--seed", "1"],
    ["bohr", "oned", "--mmax", "3"],
    ["bohr", "oned", "--restarts", "4"],
    ["bohr", "wiener", "--series", "s.json", "--n-grid", "2"],
    ["bohr", "table", "--tol", "0.1"],
    ["bohr", "table", "--n", "2"],  # not read as an abbreviated --n-grid
    ["bohr", "bracket", "--series", "x"],
    ["witness", "search", "--m", "1", "--n", "2", "--p", "2", "--q", "2"],
    ["witness", "brute", "--m", "1", "--n", "2", "--p", "2", "--q", "2", "--budget", "10"],
    ["poly", "moebius", "--seed", "1"],
    ["poly", "random", "--a", "0.5"],
    ["poly", "sign", "--M", "2"],
    ["bound", "region", "--p", "2", "--q", "2", "--n", "4"],
    ["bound", "rate", "--n", "4", "--p", "2", "--q", "2", "--m", "2"],
    ["bound", "bayart", "--m", "2", "--n", "2", "--p", "2", "--q", "2"],
    ["bound", "envelope", "--m", "2", "--n", "2", "--p", "2", "--q", "2",
     "--beta-override", "1"],
    ["bound", "region", "--p", "2", "--q", "2", "--format", "json"],  # JSON is all it writes
])
def test_unread_flags_are_not_offered(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


def _leaf_parsers(parser, path=()):
    """(command path, parser) for every parser that runs a function."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sp in action.choices.items():
            yield from _leaf_parsers(sp, path + (name,))


def _names_read(func) -> set[str]:
    """The attributes func reads from ns; _opt_cfg(ns) reads seed, restarts
    and iters, and emit(ns, ...) reads format and out."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "ns":
            read.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "ns":
            read |= {"_opt_cfg": {"seed", "restarts", "iters"},
                     "emit": {"format", "out"}}.get(node.func.id, set())
    return read


LEAVES = list(_leaf_parsers(build_parser()))


def test_leaf_parsers_cover_every_kind():
    assert len(LEAVES) == 20  # 4 commands without kinds, 16 kinds
    assert {"bohr oned", "bound jsum", "poly sign", "witness brute", "selftest"} <= dict(LEAVES).keys()


@pytest.mark.parametrize("path, parser", LEAVES, ids=[path for path, _ in LEAVES])
def test_every_offered_flag_is_read(path, parser):
    offered = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    assert offered <= _names_read(parser.get_default("func")), path


@pytest.mark.parametrize("path, parser", LEAVES, ids=[path for path, _ in LEAVES])
def test_no_parser_takes_abbreviations(path, parser):
    # else a flag the command lacks is read as a longer one it has
    assert parser.allow_abbrev is False, path
    assert build_parser().allow_abbrev is False


# a minimal command line for every leaf parser; {poly} and {series} are
# artifacts written by the fixture below
MINIMAL = {
    "enumerate": "--m 2 --n 2",
    "poly moebius": "",
    "poly random": "--n 1 --M 2",
    "poly sign": "--m 1 --n 2",
    "norm": "--poly {poly} --restarts 2 --iters 5",
    "bound jsum": "--m 2 --n 2 --p 2 --q 2",
    "bound chiupper": "--m 2 --n 2 --p 2 --q 2",
    "bound envelope": "--m 2 --n 3 --p 2 --q 3/2",
    "bound region": "--p 2 --q 2",
    "bound rate": "--n 4 --p 2 --q 2",
    "bound bayart": "--m 2 --n 2 --p 2",
    "witness search": "--m 2 --n 2 --p 2 --budget 20 --restarts 2 --iters 5",
    "witness brute": "--m 2 --n 2 --p 2 --q 3/2 --restarts 2 --iters 5",
    "witness bracket": "--m 2 --n 2 --p 2 --q 3/2 --budget 20 --restarts 2 --iters 5",
    "bohr bracket": "--n 2 --mmax 1 --budget 0",
    "bohr oned": "--tol 0.01",
    "bohr wiener": "--series {series} --p 2 --restarts 2 --iters 5",
    "bohr table": "--n-grid 2 --mmax 1 --budget 0",
    "sweep": "--m-grid 1 --n-grid 2 --p 2 --q 2 --budget 0",
    "selftest": "",
}


@pytest.fixture
def artifacts(tmp_path) -> dict:
    paths = {"poly": tmp_path / "poly.json", "series": tmp_path / "series.json"}
    paths["poly"].write_text(json.dumps(_poly_doc()))
    paths["series"].write_text(json.dumps(_series_doc()))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("path, parser", LEAVES, ids=[path for path, _ in LEAVES])
def test_every_leaf_runs(capsys, artifacts, path, parser):
    # exit 0 and an artifact that parses, in each format the kind writes
    argv = path.split() + MINIMAL[path].format(**artifacts).split()
    offers_csv = any(a.dest == "format" for a in parser._actions)
    for fmt in ("csv", "json") if offers_csv else (None,):
        code, out = capture(capsys, argv + (["--format", fmt] if fmt else []))
        assert code == 0, (path, fmt)
        if path == "selftest":
            assert out.splitlines()[-1].startswith("selftest: all")
        elif fmt == "csv":
            header = out.splitlines()[1].split(",")
            rows = _csv_records(out)
            assert rows and all(list(r) == header and None not in r.values() for r in rows)
        else:
            doc = _strict_json(out)
            assert doc.keys() == {"config", "result"} and doc["result"] not in ([], {})


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--set", "lambda_k", "--m", "2", "--n", "2"],
     "error: --k is required for --set lambda_k\n"),
    (["norm", "--poly", "{poly}", "--majorant"], "error: --q is required with --majorant\n"),
    (["sweep", "--m-grid", "1,x", "--p", "2", "--q", "2"],
     "argument --m-grid: bad integer grid '1,x'"),
    (["enumerate", "--m", "2", "--n", "2", "--config"],
     "error: --config needs a file argument\n"),
])
def test_usage_errors_exit_2(capsys, artifacts, argv, message):
    assert run([a.format(**artifacts) for a in argv]) == 2
    res = capsys.readouterr()
    assert message in res.err and res.out == ""


def _readme_commands() -> list[list[str]]:
    """The bohrlab lines of the README's command-line block, without the
    program name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bohrlab ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # in order, in one directory: poly.json and series.json feed later lines
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 12
    for argv in commands:
        assert run(argv) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "out.csv").read_text().startswith("# config:")


@pytest.mark.parametrize("argv, code", [
    (["bound", "jsum", "--m", "300", "--n", "1000000", "--p", "2", "--q", "3/2"], 2),
    (["bound", "envelope", "--m", "120", "--n", str(2**40), "--p", "2", "--q", "3/2"], 0),
    (["bohr", "table", "--n-grid", "100000", "--p", "4", "--q", "4", "--mmax", "20",
      "--budget", "0"], 0),
    (["bohr", "table", "--n-grid", "100000", "--p", "2", "--q", "3/2", "--mmax", "20",
      "--budget", "0"], 0),
    (["bound", "bayart", "--m", "200", "--n", "10", "--p", "2"], 0),
    (["bound", "bayart", "--m", "171", "--n", "10", "--p", "3"], 0),
    # --mmax bounds only the upper end's witness degrees: no grid of ten
    # times it is powered for the lower end, and q = p powers nothing
    (["bohr", "table", "--n-grid", "64", "--p", "2", "--q", "4/3", "--mmax", "1000",
      "--budget", "0"], 0),
    (["bohr", "table", "--n-grid", "1099511627776", "--p", "2", "--q", "4/3", "--mmax", "1000",
      "--budget", "0"], 0),
    (["bohr", "table", "--n-grid", "64", "--p", "2", "--q", "2", "--mmax", "1000",
      "--budget", "0"], 0),
    (["bound", "chiupper", "--m", "5000", "--n", "64", "--p", "2", "--q", "2"], 0),
])
def test_paper_range_closed_forms_answer_fast(capsys, argv, code):
    t0 = time.perf_counter()
    assert run(argv) == code
    assert time.perf_counter() - t0 <= 2.0
    res = capsys.readouterr()
    if argv[1] == "jsum":  # the sum overflows a float; the message gives its log
        assert "ln j_sum = 2017.11" in res.err
    if argv[1] == "envelope":
        assert json.loads(res.out)["result"]["value"] == pytest.approx(0.7383, abs=1e-4)


EXPONENTS = st.sampled_from(["1", "5/4", "4/3", "3/2", "2", "3", "inf"])


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["jsum", "envelope", "chiupper", "bayart"]), m=st.integers(1, 400),
       n=st.integers(1, 2**40), p=EXPONENTS, q=EXPONENTS)
def test_closed_forms_answer_or_fail_fast(kind, m, n, p, q):
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = run(["bound", kind, "--m", str(m), "--n", str(n), "--p", p,
                    *(["--q", q] if kind != "bayart" else []), "--out", os.devnull])
    assert time.perf_counter() - t0 <= 2.0
    assert code in (0, 2, 3), err.getvalue()
    if kind == "jsum" and code == 2 and "beta must be finite" not in err.getvalue():
        assert "ln j_sum = " in err.getvalue()
    if kind == "bayart" and code == 2:
        assert "ln bayart_bound = " in err.getvalue()
    if kind == "chiupper" and code == 2:
        assert "ln chi_upper = " in err.getvalue()


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 10**5), p=EXPONENTS, q=EXPONENTS)
def test_bound_chiupper_is_the_bracket_upper_end(m, n, p, q):
    # the same value and source as the upper end witness bracket prints, for
    # every (p, q); past the float range the bracket prints null and bound
    # chiupper exits 2 naming the log
    out, err, bracket_out = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["bound", "chiupper", "--m", str(m), "--n", str(n), "--p", p, "--q", q])
    with contextlib.redirect_stdout(bracket_out):
        assert run(["witness", "bracket", "--m", str(m), "--n", str(n), "--p", p, "--q", q,
                    "--budget", "0", "--restarts", "1", "--iters", "1"]) == 0
    bracket = _strict_json(bracket_out.getvalue())["result"]
    if code == 2:
        assert bracket["upper"] is None and "ln chi_upper = " in err.getvalue()
    else:
        assert code == 0
        bound = _strict_json(out.getvalue())["result"]
        assert (bound["value"], bound["provenance"]) == (bracket["upper"], bracket["upper_src"])


def test_witness_bracket(capsys):
    code, out = capture(capsys, ["witness", "bracket", "--m", "1", "--n", "3",
                                 "--p", "2", "--q", "2", "--budget", "100"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["lower"] == doc["upper"] == 1.0  # chi(1, n; 2, 2) = 1 exactly

    # non-finite values are written as null: chi's closed-form upper bound
    # is past the float range
    code, out = capture(capsys, ["witness", "bracket", "--m", "300", "--n", "100000",
                                 "--p", "4", "--q", "4", "--budget", "0"])
    assert code == 0
    doc = _strict_json(out)["result"]
    assert doc["upper"] is None and doc["lower"] == 1.0
    # rate(n) is defined for n >= 2 only
    base = ["bohr", "table", "--n-grid", "1", "--mmax", "2", "--budget", "0"]
    code, out = capture(capsys, base)
    assert code == 0
    assert _strict_json(out)["result"][0]["rate"] is None
    code, out = capture(capsys, base + ["--format", "csv"])
    assert code == 0
    assert _csv_records(out)[0]["rate"] == ""
    # the sign search would leave the float range: the trivial lower end
    code, out = capture(capsys, ["witness", "bracket", "--m", "1100", "--n", "2", "--p", "2",
                                 "--q", "inf", "--budget", "10", "--restarts", "1",
                                 "--iters", "1"])
    assert code == 0
    assert _strict_json(out)["result"]["lower"] == 1.0


BOUND_FLAGS = {"jsum": "mnpq", "chiupper": "mnpq", "rate": "npq", "bayart": "mnp", "region": "pq"}


@pytest.mark.parametrize("p, q", [("inf", "2"), ("4/3", "inf"), ("inf", "inf")])
@pytest.mark.parametrize("kind", sorted(BOUND_FLAGS))
def test_bound_json_is_strict_at_infinite_exponents(capsys, kind, p, q):
    # JSON has no Infinity token: an infinite p or q is written null (bound
    # envelope takes 1 < q <= p <= 2 only, so no infinite exponent)
    given, flags = {"m": "3", "n": "4", "p": p, "q": q}, BOUND_FLAGS[kind]
    fmt = [] if kind == "region" else ["--format", "json"]
    code, out = capture(capsys, ["bound", kind, *fmt,
                                 *(arg for k in flags for arg in (f"--{k}", given[k]))])
    assert code == 0
    doc = _strict_json(out)["result"]
    if kind != "region":
        for k in "pq":
            want = parse_exponent(given[k]) if k in flags else None
            assert doc[k] == (None if want == math.inf else want)


def _strict_json(text: str):
    """json.loads refusing the NaN / Infinity tokens that RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def test_sweep_json_is_one_record_per_cell(capsys):
    # the CSV table's cells, typed: numbers as numbers, inf as null
    base = ["sweep", "--m-grid", "1,2", "--n-grid", "2,3", "--p", "2", "--q", "inf",
            "--budget", "50", "--restarts", "4", "--iters", "20"]
    code, out = capture(capsys, base + ["--format", "csv"])
    assert code == 0
    rows = _csv_records(out)
    code, out = capture(capsys, base + ["--format", "json"])
    assert code == 0
    records = _strict_json(out)["result"]
    assert [sorted(r) for r in records] == [sorted(row) for row in rows]
    for rec, row in zip(records, rows):
        assert (rec["m"], rec["n"], rec["p"], rec["q"]) == (int(row["m"]), int(row["n"]), 2.0, None)
        assert (row["p"], row["q"]) == ("2", "inf")  # a float cell has 17 significant digits
        assert (rec["lower"], rec["upper"]) == (float(row["lower"]), float(row["upper"]))
        assert (rec["lower_src"], rec["upper_src"]) == (row["lower_src"], row["upper_src"])
    # an upper end past the float range is null too
    code, out = capture(capsys, ["sweep", "--m-grid", "300", "--n-grid", "100000", "--p", "4",
                                 "--q", "4", "--budget", "0", "--format", "json"])
    assert code == 0
    assert _strict_json(out)["result"][0]["upper"] is None


def test_linear_bracket_answers_at_once(capsys):
    # m = 1 is exact: no sign search over the 1000 linear monomials
    t0 = time.process_time()
    code, out = capture(capsys, ["witness", "bracket", "--m", "1", "--n", "1000",
                                 "--p", "2", "--q", "2"])
    assert time.process_time() - t0 < 2.0
    assert code == 0
    doc = json.loads(out)["result"]
    assert [doc["lower"], doc["upper"]] == [1.0, 1.0] and doc["flags"] == []
    # the sweep's m = 1 cells read [1, 1] at (p, q) = (2, 3/2)
    code, out = capture(capsys, ["sweep", "--m-grid", "1", "--n-grid", "2,16", "--p", "2",
                                 "--q", "3/2", "--format", "json"])
    assert code == 0
    assert [(r["lower"], r["upper"]) for r in json.loads(out)["result"]] == [(1.0, 1.0)] * 2


def test_csv_quotes_fields_holding_commas(capsys):
    # "sign-search flat point (estimate-based, slack-deflated)" holds a
    # comma: quoted, every row keeps the header's 8 fields.  At (1, 4/3) the
    # Fourier end's exponent is 0, so the m = 2 lower ends are the searches'
    code, out = capture(capsys, ["sweep", "--m-grid", "1,2", "--n-grid", "2,3", "--p", "1",
                                 "--q", "4/3", "--budget", "50", "--restarts", "4",
                                 "--iters", "20", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()[1:]
    header, *rows = csv.reader(lines)
    assert len(header) == 8 and len(rows) == 4
    assert all(len(row) == 8 for row in rows)
    assert any("," in src for src in (rec["lower_src"] for rec in _csv_records(out)))
    assert all(line.count('"') in (0, 2) for line in lines)


def test_huge_dimensions_answer(capsys):
    # n past the float range answers (the rate and the chi-upper roots are
    # taken in logarithms); the lower end of K is then 0, below every float
    huge = str(10**309)
    code, out = capture(capsys, ["bound", "rate", "--n", huge, "--p", "2", "--q", "2"])
    assert code == 0
    assert _strict_json(out)["result"]["value"] == pytest.approx(
        math.sqrt(309 * math.log(10)) / 10**154.5, rel=1e-12)
    code, out = capture(capsys, ["bohr", "table", "--n-grid", huge, "--p", "2", "--q", "2"])
    assert code == 0
    assert 0 < _strict_json(out)["result"][0]["rate"] < 1e-150
    code, out = capture(capsys, ["bohr", "bracket", "--n", huge, "--p", "inf", "--q", "inf",
                                 "--mmax", "1", "--budget", "0"])
    assert code == 0
    # |Lambda(m, n)|^(1/2) is n^(m/2) / sqrt(m!) to far below a float's
    # precision here, and the m = 1 term r is far below 1/2, so sqrt(n) r
    # is the root y of sum over m >= 2 of y^m / sqrt(m!) = 1/2
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        wiener = math.fsum(mid**m / math.sqrt(math.factorial(m)) for m in range(2, 80))
        lo, hi = (mid, hi) if wiener <= 0.5 else (lo, mid)
    assert _strict_json(out)["result"]["lower"] == pytest.approx(lo / 10**154.5, rel=1e-9, abs=0)
    # a dimension below 1 is named as given, not through the m-grid
    assert run(["bohr", "table", "--n-grid", "0"]) == 2
    assert capsys.readouterr().err == "error: need n >= 1, got 0\n"


def test_bohr_oned(capsys):
    code, out = capture(capsys, ["bohr", "oned", "--tol", "1e-3"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["lower"] <= 1 / 3 <= doc["upper"]


def _poly_doc(**term):
    """A one-term linear polynomial artifact; term overrides its fields."""
    return {"n": 2, "m": 1, "terms": [{"alpha": [1, 0], "re": 1.0, "im": 0.0, **term}]}


def _series_doc(a0=None, **term):
    """A one-part series artifact; a0 and term override its fields."""
    return {"n": 2, "a0": {"re": 0.1, "im": 0.0} if a0 is None else a0,
            "parts": [_poly_doc(**{"re": 0.3, **term})]}


def test_exit_codes(capsys, tmp_path):
    assert run(["bound", "region", "--p", "bogus", "--q", "2"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["poly", "random", "--n", "2", "--M", "3", "--budget", "0"]) == 3
    assert run(["bound", "rate", "--p", "1e400", "--q", "2", "--n", "4"]) == 2
    # a sign search past the float range, and a bracket for m = 0
    assert run(["witness", "search", "--m", "1100", "--n", "2", "--p", "2", "--budget", "10",
                "--restarts", "1", "--iters", "1"]) == 2
    assert run(["witness", "bracket", "--m", "0", "--n", "2", "--p", "2", "--q", "inf"]) == 2
    # a tolerance outside (0, 1/3] fails before any search
    for tol in ("nan", "inf", "5", "0.5", "0.7", "1", "0", "-1e-3"):
        assert run(["bohr", "oned", "--tol", tol]) == 2

    def artifact(doc):
        path = tmp_path / f"doc{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(doc))  # writes NaN / Infinity for non-finite floats
        return str(path)

    # non-finite coefficients, in every estimator
    for doc in (_poly_doc(re=math.inf), _poly_doc(im=math.nan)):
        for how in (["--p", "2"], ["--majorant", "--q", "2"], ["--majorant", "--q", "inf"]):
            assert run(["norm", "--poly", artifact(doc), *how]) == 2
    for doc in (_series_doc(re=math.nan), _series_doc(a0={"re": math.nan, "im": 0.0})):
        assert run(["bohr", "wiener", "--series", artifact(doc), "--p", "2"]) == 2
    # malformed artifacts and fractional exponents
    for doc in ([1, 2], _poly_doc(alpha=5), _poly_doc(re="x"), {"n": 2, "m": 1, "terms": None},
                _poly_doc(alpha=[0.5, 0.5]), {**_poly_doc(), "n": 2.5}, _poly_doc(re=10**400)):
        assert run(["norm", "--poly", artifact(doc), "--p", "2"]) == 2
    assert run(["bohr", "wiener", "--series", artifact(_series_doc(a0=0.5)), "--p", "2"]) == 2
    # the well-formed artifacts answer
    assert run(["norm", "--poly", artifact(_poly_doc()), "--majorant", "--q", "2"]) == 0
    # abbreviated flags are refused, not read as the longer ones
    assert run(["sweep", "--m-grid", "1", "--n", "2", "--p", "2", "--q", "2"]) == 2
    assert run(["norm", "--poly", "X", "--maj"]) == 2
    assert run(["norm", "--poly", artifact(_poly_doc()), "--maj", "--q", "2"]) == 2
    assert run(["bohr", "wiener", "--series", artifact(_series_doc()), "--p", "2"]) == 0
    # too few samples fails before any search, whatever the index-set size
    assert run(["witness", "bracket", "--m", "2", "--n", "20", "--p", "2", "--q", "2",
                "--samples", "10"]) == 2
    assert run(["bohr", "table", "--n-grid", "64", "--samples", "10", "--budget", "0"]) == 2
    capsys.readouterr()


def test_emit_streams_the_artifact(tmp_path):
    # shaped like `witness search` output: many signs, each with a long
    # exponent list; about 5 MB of JSON
    payload = {"signs": [{"alpha": [k % 3] * 199, "sign": 1 - 2 * (k % 2)}
                         for k in range(2000)],
               "norm": 1.5, "provenance": "estimate (certified lower bound)"}
    ns = argparse.Namespace(cmd="witness", kind="search", format="json",
                            out=str(tmp_path / "artifact"), seed=1)
    tracemalloc.start()
    try:
        emit(ns, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "artifact").read_text()
    assert text == json.dumps({"config": config_line(ns), "result": payload},
                              sort_keys=True, indent=2) + "\n"
    assert peak < len(text) / 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nn=2\nformat=csv\n")
    code, out = capture(capsys, ["enumerate", "--config", str(cfg)])
    assert code == 0
    assert "index,exponents,multiplicity" in out
    # explicit flag wins over config value
    code, out2 = capture(capsys, ["enumerate", "--config", str(cfg),
                                  "--format", "json"])
    assert code == 0
    json.loads(out2)


def test_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BOHRLAB_SEED", raising=False)
    code, out = capture(capsys, ["poly", "sign", "--m", "1", "--n", "2"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == "0"
    # the parser is built once per process; the seed default is read per run
    monkeypatch.setenv("BOHRLAB_SEED", "123")
    code, out = capture(capsys, ["poly", "sign", "--m", "1", "--n", "2"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == "123"


def test_console_script_installed():
    res = subprocess.run([sys.executable, "-m", "bohrlab.cli", "bound", "region",
                          "--p", "2", "--q", "1"], capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["result"]["region"] == "Q1"


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    res = subprocess.run([sys.executable, "-m", "bohrlab", "bound", "region", "--p", "2",
                          "--q", "2"], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["result"]["region"] == "II"


def test_witness_search_memory_is_bounded_by_its_table():
    # Lambda(480, 2): its down-closure has C(482, 2) = 115,921 entries.  Built
    # twice from Python tuples (scorer and re-scoring ascent) it took the
    # command to 354 MB; built once in numpy and shared, to about 80 MB.  A
    # wrapper process reports its one child's peak
    wrapper = ("import resource, subprocess, sys; "
               "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    res = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m", "bohrlab.cli",
                          "witness", "search", "--m", "480", "--n", "2", "--p", "inf",
                          "--budget", "10", "--restarts", "1", "--iters", "1"],
                         capture_output=True, text=True, check=True)
    assert int(res.stdout) < 150 * 1024  # kB


def test_selftest_times_each_check_on_stderr(capsys):
    code = run(["selftest"])
    res = capsys.readouterr()
    assert code == 0
    checks = res.out.splitlines()[:-1]
    timings = res.err.splitlines()
    assert len(checks) == len(timings) > 0
    for check, timing in zip(checks, timings):
        seconds, name = timing.split(" s  ", 1)
        assert float(seconds) >= 0
        assert check == "ok   " + name
    assert res.out.splitlines()[-1] == f"selftest: all {len(checks)} checks passed"


def test_reruns_byte_identical(capsys):
    args = ["sweep", "--m-grid", "1,2", "--n-grid", "2", "--p", "2", "--q", "2",
            "--budget", "100", "--restarts", "6", "--iters", "60"]
    _, a = capture(capsys, args)
    _, b = capture(capsys, args)
    assert a == b


@pytest.mark.parametrize("argv, provenance", [
    (["--p", "2", "--q", "4/3", "--n-grid", "64", "--budget", "0"], "closed-form"),
    # chi(1, 4; 4/3, inf) = 4^(3/4) < 3 (exact), and the sign-search chi
    # lower bound at m = 2 sets K upper, below the Fourier end's 4^(-3/4)
    # and 1/3 (where the Fourier exponent is <= 0, chi grows too slowly
    # for a search at small n to reach 3^m)
    (["--p", "4/3", "--q", "inf", "--n-grid", "4", "--mmax", "2", "--budget", "100",
      "--restarts", "4", "--iters", "20"], "estimate-based"),
    # chi(1, 4; 1, inf) = 4 > 3 exactly: K upper 1/4 is closed-form
    (["--p", "1", "--q", "inf", "--n-grid", "4", "--mmax", "1", "--budget", "100",
      "--restarts", "4", "--iters", "20"], "closed-form"),
])
def test_bohr_table_provenance(capsys, argv, provenance):
    base = ["bohr", "table"] + argv
    code, out = capture(capsys, base + ["--format", "csv"])
    assert code == 0
    assert [r["provenance"] for r in _csv_records(out)] == [provenance]
    code, out = capture(capsys, base + ["--format", "json"])
    assert code == 0
    assert [r["provenance"] for r in json.loads(out)["result"]] == [provenance]


def test_bohr_table_shape(capsys):
    # one K bracket per n, each end with its source; the bench splits the
    # CSV on bare commas, so n, lower and upper come first and the
    # provenance last
    base = ["bohr", "table", "--n-grid", "2,4", "--p", "2", "--q", "2", "--mmax", "2",
            "--budget", "400", "--samples", "1000", "--restarts", "10", "--iters", "100",
            "--seed", "21"]
    code, out = capture(capsys, base + ["--format", "json"])
    assert code == 0
    records = _strict_json(out)["result"]
    assert [r["n"] for r in records] == [2, 4]
    for r in records:
        assert r["lower"] <= r["upper"]
        assert r["region"] == "II"
        assert r["lower_src"].startswith("Wiener sum over all m (dense to m0 = ") and r["upper_src"]
    code, out = capture(capsys, base + ["--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "n,lower,upper,lower_src,upper_src,region,rate,provenance"
    rows = _csv_records(out)
    assert [[r[k] for k in ("lower_src", "upper_src")] for r in rows] == \
        [[r[k] for k in ("lower_src", "upper_src")] for r in records]
    for line, r in zip(out.splitlines()[2:], records):
        cells = line.split(",")
        assert (int(cells[0]), float(cells[1]), float(cells[2])) == (r["n"], r["lower"], r["upper"])
        assert cells[-1] == r["provenance"]


def _bracket_ends(doc: dict) -> tuple:
    return tuple(doc[k] for k in ("lower", "upper", "lower_src", "upper_src"))


def test_bracket_artifacts_name_both_sources(capsys):
    # every bracket artifact carries both ends and both sources, the same
    # ones in a one-cell table as in the single-bracket kind
    chi = ["--p", "2", "--q", "3/2", "--budget", "50", "--restarts", "4", "--iters", "20"]
    _, one = capture(capsys, ["witness", "bracket", "--m", "2", "--n", "3", *chi])
    _, cell = capture(capsys, ["sweep", "--m-grid", "2", "--n-grid", "3", *chi,
                               "--format", "json"])
    assert _bracket_ends(_strict_json(one)["result"]) == \
        _bracket_ends(_strict_json(cell)["result"][0])
    k = ["--p", "inf", "--q", "inf", "--mmax", "2", "--budget", "0"]
    _, one = capture(capsys, ["bohr", "bracket", "--n", "64", *k])
    _, row = capture(capsys, ["bohr", "table", "--n-grid", "64", *k])
    assert _bracket_ends(_strict_json(one)["result"]) == \
        _bracket_ends(_strict_json(row)["result"][0])
    _, oned = capture(capsys, ["bohr", "oned", "--tol", "0.01"])
    assert all(_bracket_ends(_strict_json(oned)["result"]))
