import json
import math
import subprocess
import sys

import pytest

from bohrlab.cli import parse_exponent, run


def capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


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
    body = [l.split(",") for l in lines[2:]]
    assert [b[1] for b in body] == ["2;0", "1;1", "0;2"]
    assert [b[2] for b in body] == ["1", "2", "1"]


def test_enumerate_many_variables(capsys):
    code, out = capture(capsys, ["enumerate", "--m", "1", "--n", "1500",
                                 "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 1500


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


def test_bound_jsum(capsys):
    code, out = capture(capsys, ["bound", "jsum", "--m", "3", "--n", "2",
                                 "--p", "2", "--q", "4/3"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(2.5)


def test_norm_roundtrip(tmp_path, capsys):
    poly = {"n": 2, "m": 2, "terms": [{"alpha": [1, 1], "re": 1.0, "im": 0.0}]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(poly))
    code, out = capture(capsys, ["norm", "--poly", str(f), "--p", "2",
                                 "--restarts", "8"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(0.5, abs=1e-9)


def test_witness_bracket(capsys):
    code, out = capture(capsys, ["witness", "bracket", "--m", "1", "--n", "3",
                                 "--p", "2", "--q", "2", "--budget", "100"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["lower"] <= doc["upper"]
    assert doc["upper"] == pytest.approx(math.e)


def test_bohr_oned(capsys):
    code, out = capture(capsys, ["bohr", "oned", "--tol", "1e-3"])
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["lower"] <= 1 / 3 <= doc["upper"]


def test_exit_codes(capsys):
    assert run(["bound", "region", "--p", "bogus", "--q", "2"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["poly", "random", "--n", "2", "--M", "3", "--budget", "0"]) == 3
    capsys.readouterr()


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
    monkeypatch.setenv("BOHRLAB_SEED", "123")
    code, out = capture(capsys, ["poly", "sign", "--m", "1", "--n", "2"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == "123"


def test_console_script_installed():
    res = subprocess.run([sys.executable, "-m", "bohrlab.cli", "bound", "region",
                          "--p", "2", "--q", "1"], capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["result"]["region"] == "Q1"


def test_reruns_byte_identical(capsys):
    args = ["sweep", "--m-grid", "1,2", "--n-grid", "2", "--p", "2", "--q", "2",
            "--budget", "100", "--restarts", "6", "--iters", "60"]
    _, a = capture(capsys, args)
    _, b = capture(capsys, args)
    assert a == b


@pytest.mark.parametrize("argv, provenance", [
    (["--p", "2", "--q", "4/3", "--n-grid", "64", "--budget", "0"], "closed-form"),
    # chi(1, 4; 1, inf) = 4 > 3: the sign-search chi lower bound sets K upper
    (["--p", "1", "--q", "inf", "--n-grid", "4", "--mmax", "1", "--budget", "100",
      "--restarts", "4", "--iters", "20"], "estimate-based"),
])
def test_bohr_table_provenance(capsys, argv, provenance):
    base = ["bohr", "table"] + argv
    code, out = capture(capsys, base + ["--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split(",")[-1] == "provenance"
    assert lines[2].split(",")[-1] == provenance
    code, out = capture(capsys, base + ["--format", "json"])
    assert code == 0
    assert [r["provenance"] for r in json.loads(out)["result"]] == [provenance]
