import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cftinv.cli import main, parse_grid, load_config_file
from cftinv.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_model_command(capsys):
    code, out, err = run(capsys, "model", "--m", "3")
    assert code == 0
    assert "c = 1/2" in out and "sectors = 3" in out


def test_model_json(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, out, _ = run(capsys, "model", "--m", "4", "--format", "json",
                       "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["data"]["c"] == "7/10"
    assert len(doc["data"]["sectors"]) == 6


def test_invariants_vacuum_ok(capsys):
    code, out, _ = run(capsys, "invariants", "--m", "3", "--sector", "vacuum")
    assert code == 0
    assert "0.1308996" in out
    assert "within tolerance" in out


def test_invariants_rejects_small_m(capsys):
    code, out, err = run(capsys, "invariants", "--m", "2")
    assert code == 1
    assert "m must be >= 3" in err
    json.loads(err)                      # machine readable


def test_invariants_out_of_regime(capsys):
    code, out, err = run(capsys, "invariants", "--m", "3",
                         "--grid", "0.5:1:4")
    assert code == 2
    assert "asymptotic" in err


def test_invariants_default_grid_fits_m5(capsys):
    """Without --grid the fit runs on the model's clean grid, which keeps
    the m = 5 sector transform terms out of the fit."""
    code, out, err = run(capsys, "invariants", "--m", "5", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["within_tolerance"] is True
    assert float(doc["report"]["grid"][-1]) < 0.012


def test_characters_csv(capsys):
    code, out, _ = run(capsys, "characters", "--m", "3", "--cutoff", "120",
                       "--grid", "0.5:2:2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sector,t,value,certified_error"
    assert len(lines) == 1 + 3 * 2


def test_verify_subset_pass(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "--modular", "--bridge", "--m", "4",
                       "-o", str(path))
    assert code == 0
    assert "ALL PASS" in out
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert all(r["status"] == "PASS" for r in doc["results"])


def test_verify_battery_error_still_writes_report(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, err = run(capsys, "verify", "--characters", "--modular",
                         "--cutoff", "30", "-o", str(path))
    assert code == 2
    assert err == ""
    assert "FAIL characters-battery max_dev=error" in out
    assert "FAILURES PRESENT" in out
    rows = json.loads(path.read_text())["results"]
    assert rows[0]["identity"].startswith("S-symmetric")   # modular ran first
    assert rows[-1]["identity"] == "characters-battery"
    assert rows[-1]["status"] == "FAIL" and "cutoff 30" in rows[-1]["error"]


def test_verify_corrupt_sign_fails(capsys):
    code, out, _ = run(capsys, "verify", "--fock", "--corrupt-sign",
                       "--seed", "7")
    assert code == 2
    assert "FAIL fock-det-vs-bruteforce" in out


def test_verify_deterministic_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--appendix-c", "--bridge",
                         "--seed", "42", "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


#: sha256 and length of stdout for report commands, with CFTINV_DPS unset;
#: any change to a report byte changes these.
REPORT_DIGESTS = {
    ("verify", "--all", "--seed", "42", "--format", "json"):
        (0, 7524,
         "ee64021cb8cb60e96aa60d7c26d0522d9416b39a8f377f33c81d3830da157a23"),
    ("verify", "--characters", "--modular", "--cutoff", "30", "--format", "json"):
        (2, 2268,
         "58b27d0919c11fb2633c9999a741237e465b5a91f658736aa3881a6330819f82"),
    ("lab", "--dims", "2,3,2", "--seed", "7", "--format", "json"):
        (0, 4680,
         "fb5b6f0c30549ee61a3c14b5b911b660575827b8f54b70047dbf6a1010423f07"),
    ("lab", "--dims", "3,4,3", "--seed", "7", "--format", "json"):
        (0, 4686,
         "d7e09e986378ac81e1dcb2c330d2ea328d974acfd1b0f145cf420ba334363371"),
    ("lab", "--dims", "2,3,4", "--seed", "7", "--format", "json"):
        (0, 3646,
         "8aba8696dd73d6ae3025ee2faa4080c97d5ee2046d92e273993097ad0d806afb"),
}


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_report_bytes_pinned(capsys, monkeypatch, argv):
    monkeypatch.delenv("CFTINV_DPS", raising=False)
    code, out, err = run(capsys, *argv)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest(), err) == \
        (*REPORT_DIGESTS[argv], "")


def test_verify_builds_modular_data_once(capsys, monkeypatch):
    """The modular and characters batteries share one model and one
    ModularData; batteries that read neither build none."""
    from cftinv import modular_data

    calls = {"build_minimal_model": 0, "modular_matrices": 0}

    def counted(name):
        real = getattr(modular_data, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(modular_data, name, counted(name))
    code, out, _ = run(capsys, "verify", "--modular", "--characters", "--m", "4")
    assert code == 0 and "s-transform-residual-m4" in out
    assert calls == {"build_minimal_model": 1, "modular_matrices": 1}
    code, out, _ = run(capsys, "verify", "--fock", "--bridge", "--virasoro")
    assert code == 0 and "ALL PASS" in out
    assert calls == {"build_minimal_model": 1, "modular_matrices": 1}


def test_lab_report_fields(capsys, tmp_path):
    path = tmp_path / "lab.json"
    code, out, _ = run(capsys, "lab", "--dims", "2,2,2", "--seed", "5",
                       "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    recs = doc["results"]
    assert any(r["identity"] == "symmetric-split-masses" for r in recs)
    for r in recs:
        assert r["dims"] == [2, 2, 2]
        assert r["seed"] == 5
        assert "abs_dev" in r


def test_lab_asymmetric_dims(capsys, tmp_path):
    path = tmp_path / "lab.json"
    code, out, err = run(capsys, "lab", "--dims", "2,3,4", "--seed", "1",
                         "-o", str(path))
    assert code == 0, err
    recs = json.loads(path.read_text())["results"]
    names = [r["identity"] for r in recs]
    assert len(recs) == 11 and all(r["status"] == "PASS" for r in recs)
    assert "index-product-d2sq-234" in names
    assert not any(n.startswith("kms") or n == "symmetric-split-masses"
                   for n in names)


def test_bh_mass(capsys):
    code, out, _ = run(capsys, "bh", "--mass", "1")
    assert code == 0
    assert "S = 12.56637" in out


def test_bh_central_charge(capsys):
    code, out, _ = run(capsys, "bh", "--central-charge", "0.5")
    assert code == 0
    assert "== S" in out                  # S = pi/12 equals F_mean(2d)
    assert "0.2617993" in out


def test_bh_overdetermined(capsys):
    code, _, err = run(capsys, "bh", "--mass", "1", "--area", "5")
    assert code == 1
    assert "exactly one" in err


def test_bh_underdetermined(capsys):
    code, _, err = run(capsys, "bh")
    assert code == 1


def test_parse_grid():
    assert len(parse_grid("0.01:0.05:5")) == 5
    assert parse_grid("1:1:1") == ("1.0",)
    pts = parse_grid("0.01:0.04:3:log")
    assert float(pts[1]) == pytest.approx(0.02, rel=1e-6)
    with pytest.raises(ConfigError):
        parse_grid("1:2")
    with pytest.raises(ConfigError):
        parse_grid("2:1:3")


def test_config_file_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 5\nprecision = 40\n# comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "model")
    assert code == 0
    assert "m = 5" in out
    code, out, _ = run(capsys, "--config", str(cfg), "model", "--m", "3")
    assert code == 0
    assert "m = 3" in out                # flag beats file


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("precision 40\n")
    with pytest.raises(ConfigError):
        load_config_file(str(cfg))


def test_config_file_unknown_key_refused(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("precison = 60\n")
    code, out, err = run(capsys, "--config", str(cfg), "model", "--m", "3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["exit"] == 1 and "'precison'" in doc["error"]


def test_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("CFTINV_DPS", "25")
    code, _, err = run(capsys, "model", "--m", "3")
    assert code == 1                      # below the precision >= 30 floor
    monkeypatch.setenv("CFTINV_DPS", "36")
    code, out, _ = run(capsys, "model", "--m", "3")
    assert code == 0


def test_precision_floor(capsys):
    code, _, err = run(capsys, "model", "--m", "3", "--precision", "10")
    assert code == 1
    assert "precision" in err


@pytest.mark.parametrize("argv", [
    ("model", "--m", "3.5"),
    ("model", "--no-such-flag"),
    ("invariants", "--format", "xml"),
    ("no-such-command",),
    (),
])
def test_argparse_rejections_follow_exit_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["exit"] == 1 and doc["error"].startswith("cftinv")


def test_malformed_inputs_never_panic(capsys, tmp_path):
    # unknown sector name
    code, _, err = run(capsys, "invariants", "--m", "3", "--sector", "banana")
    assert code == 1 and err
    # weight that belongs to no sector
    code, _, err = run(capsys, "characters", "--m", "3", "--sector", "7/16")
    assert code == 1 and err
    # missing config file
    code, _, err = run(capsys, "--config", str(tmp_path / "nope.cfg"), "model")
    assert code == 1 and err
    # unwritable output path
    code, _, err = run(capsys, "model", "--m", "3",
                       "-o", str(tmp_path / "no" / "dir" / "x.json"))
    assert code == 1 and err
    # garbage dims
    code, _, err = run(capsys, "lab", "--dims", "2,x,2")
    assert code == 1 and err


@pytest.mark.parametrize("argv", [
    ("invariants", "--m", "3", "--sector", "1/0"),
    ("characters", "--m", "3", "--sector", "1/0"),
    ("bh", "--mass", "0"),
    ("bh", "--area", "nan"),
    ("bh", "--mass", "nan"),
    ("invariants", "--grid", "nan:1:5"),
    ("invariants", "--grid", "0.01:inf:5"),
    ("fock", "--grid", "nan:1:3"),
], ids=" ".join)
def test_zero_and_non_finite_inputs_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["exit"] == 1


def test_sector_exponent_refused_before_parsing(capsys, monkeypatch):
    """A weight with an exponent is a usage error before Fraction expands
    it (``1e99999999`` would build a 100-million-digit integer); weights
    written as p/q, integers and decimals still resolve."""
    import cftinv.cli as cli

    def never(*args):
        raise AssertionError("a model was built for an exponent weight")

    for argv in (("characters", "--sector", "1e99999999", "--dump"),
                 ("invariants", "--sector", "2E-99999999"),
                 ("characters", "--sector", "3e0")):
        monkeypatch.setattr(cli.modular_data, "build_minimal_model", never)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "without an exponent" in json.loads(err)["error"]
        monkeypatch.undo()
    for sector in ("1/2", "0.5", "vacuum"):
        code, out, _ = run(capsys, "characters", "--sector", sector, "--dump",
                           "--cutoff", "10")
        assert code == 0 and out.startswith("1\n")


def test_dims_limit_refused_before_any_work(capsys, monkeypatch):
    import cftinv.cli as cli
    from cftinv import lab, verify

    def never(*args):
        raise AssertionError("the lab battery ran past the --dims limit")

    monkeypatch.setattr(verify, "_appendix_c_tasks", never)
    for argv in (("lab", "--dims", "5,13,1"),
                 ("verify", "--appendix-c", "--dims", "5,13,1")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert str(lab.MAX_DIM) in json.loads(err)["error"]
        # within the limit both commands reach the patched battery
        with pytest.raises(AssertionError, match="--dims limit"):
            main([*argv[:-1], "1,1,1"])
    cli.RunConfig(command="lab", dims=(4, 4, 4)).validate()
    assert lab.MAX_DIM == 64


def test_grid_count_limit_refused_before_any_work(capsys, monkeypatch):
    import cftinv.cli as cli

    def never(*args):
        raise AssertionError("a grid point was built past the count limit")

    monkeypatch.setattr(cli, "decstr", never)
    over = cli.MAX_GRID_POINTS + 1
    for argv in (("characters", "--grid", f"0.1:1:{over}"),
                 ("fock", "--grid", f"0.01:1:{over}:log")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert str(cli.MAX_GRID_POINTS) in json.loads(err)["error"]
    monkeypatch.undo()
    assert len(parse_grid(f"0.1:1:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS


def test_cutoff_limit_refused_before_any_work(capsys, monkeypatch):
    import cftinv.cli as cli

    def never(*args):
        raise AssertionError("the series were built past the --cutoff limit")

    monkeypatch.setattr(cli.characters, "all_character_series", never)
    monkeypatch.setattr(cli.characters, "character_coeffs", never)
    for argv in (("characters", "--dump", "--cutoff", str(cli.MAX_CUTOFF + 1)),
                 ("invariants", "--cutoff", str(cli.MAX_CUTOFF + 1))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert str(cli.MAX_CUTOFF) in json.loads(err)["error"]
    cli.RunConfig(command="characters", cutoff=cli.MAX_CUTOFF).validate()
    assert cli.MAX_CUTOFF >= 20000       # perfbench's series dumps


def test_precision_limit_refused_before_any_work(capsys, monkeypatch):
    """One digit past the limit, by flag or by CFTINV_DPS, exits 1 with one
    JSON line before the command starts."""
    import cftinv.cli as cli

    def never(*args):
        raise AssertionError("the lab ran past the precision limit")

    def refused(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"{over} exceeds the limit {cli.MAX_PRECISION}" in \
            json.loads(err)["error"]

    monkeypatch.setattr(cli, "cmd_lab", never)
    over = str(cli.MAX_PRECISION + 1)
    refused("lab", "--precision", over)
    monkeypatch.setenv("CFTINV_DPS", over)
    refused("lab")
    cli.RunConfig(command="lab", precision=cli.MAX_PRECISION).validate()


def test_dump_equals_all_sector_build(capsys, monkeypatch):
    """The dump builds one sector's series; its bytes are those of that
    sector in the all-sector build, for every sector of m = 5 and m = 8."""
    import cftinv.cli as cli
    from cftinv import characters, modular_data

    expected = {}
    for m in (5, 8):
        model = modular_data.build_minimal_model(m)
        for sec, series in zip(model.sectors,
                               characters.all_character_series(model, 300)):
            expected[m, str(sec.h)] = characters.coeff_dump(series)

    def never(*args):
        raise AssertionError("the dump built more than one sector")

    monkeypatch.setattr(cli.characters, "all_character_series", never)
    monkeypatch.setattr(cli.modular_data, "modular_matrices", never)
    for (m, weight), text in expected.items():
        code, out, err = run(capsys, "characters", "--m", str(m), "--sector",
                             weight, "--dump", "--cutoff", "300")
        assert (code, out, err) == (0, text, "")
    code, out, err = run(capsys, "characters", "--m", "5", "--sector", "7/3",
                         "--dump")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "'no sector with weight 7/3'", "exit": 1}


def test_cli_import_loads_no_numpy():
    import cftinv
    src = str(Path(cftinv.__file__).resolve().parent.parent)
    probe = "import sys, cftinv.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"



# the library names perfbench/checks.py uses, and the S-matrix indexing
CHECKS_PROBE = """
import checks
from fractions import Fraction
from cftinv.cli import FIT_TOLERANCES
from cftinv.characters import all_character_series, evaluate
from cftinv.modular_data import build_minimal_model, modular_matrices, mpq
model = build_minimal_model(3)
md = modular_matrices(model)
series = all_character_series(model, 30)
assert sorted(FIT_TOLERANCES) == ["a0", "a1", "a2"]
assert md.S[0, 1] > 0 and evaluate(series[0], 1).value > mpq(Fraction(1))
"""


def test_fresh_import_and_benchmark_names():
    """A fresh interpreter with no bytecode cache imports ``cftinv.cli``,
    and the benchmark's output checks import and find every library name
    they use."""
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    for path, probe in ((src, "import cftinv.cli"),
                        (src + os.pathsep + str(root / "perfbench"), CHECKS_PROBE)):
        done = subprocess.run([sys.executable, "-c", probe], cwd=root,
                              env=dict(os.environ, PYTHONPATH=path,
                                       PYTHONDONTWRITEBYTECODE="1"),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
