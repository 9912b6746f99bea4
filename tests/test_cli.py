"""Command-line behavior: output shapes, exit codes, config plumbing."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orliczforms import Box, cli
from orliczforms.cli import main
from orliczforms.config import DEFAULT_CONFIG, NODE_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- norm

def test_norm_lp_known_value(capsys):
    code, out, _ = run(capsys, "norm", "--form", "poly:x1", "--kind", "lp",
                       "--p", "2")
    assert code == 0
    label, value = out.strip().rsplit("=", 1)
    assert label.strip() == "lp[p=2] poly:x1"
    assert float(value) == pytest.approx(3.0 ** -0.5, rel=1e-6)


def test_norm_luxemburg_zero(capsys):
    code, out, _ = run(capsys, "norm", "--form", "zero", "--kind", "luxemburg")
    assert code == 0
    assert float(out.strip().rsplit("=", 1)[1]) == 0.0


def test_norm_bmo_of_constant_form_vanishes(capsys):
    code, out, _ = run(capsys, "norm", "--form", "const:dx1", "--kind", "bmo",
                       "--ball-count", "8")
    assert code == 0
    head, _, tail = out.partition("argmax_ball=")
    assert tail  # oscillation kinds report the attaining ball
    assert float(head.strip().rsplit("=", 1)[1]) < 1e-8


def test_norm_lipschitz_runs(capsys):
    code, out, _ = run(capsys, "norm", "--form", "corpus:poly-0form",
                       "--kind", "lipschitz", "--ball-count", "8",
                       "--resolution", "9")
    assert code == 0
    assert float(out.partition("argmax_ball=")[0].strip().rsplit("=", 1)[1]) > 0


def test_norm_rejects_bad_phi(capsys):
    # a malformed spec, and a constant custom phi that fails the axioms
    for phi in ("power:zero", "custom:3"):
        code, _, err = run(capsys, "norm", "--form", "poly:x1",
                           "--kind", "luxemburg", "--phi", phi)
        assert code == 2
        assert err.strip()


def test_norm_custom_power_prints_the_named_power_value(capsys):
    # t^60 overflows at the top of the t-grid in both spellings
    values = []
    for phi in ("power:60", "custom:t^60"):
        code, out, _ = run(capsys, "norm", "--form", "poly:x1",
                           "--kind", "luxemburg", "--phi", phi)
        assert code == 0
        values.append(out.strip().rsplit("=", 1)[1])
    assert values[0] == values[1]


def test_phi_help_and_unknown_spec_error_name_every_young_family(capsys):
    specs = ["power:<p>", "power_log:<p>", "custom:<expression>"]
    assert cli.PHI_SPECS == ", ".join(specs)
    with pytest.raises(SystemExit):
        main(["norm", "--help"])
    assert cli.PHI_SPECS in " ".join(capsys.readouterr().out.split())
    code, _, err = run(capsys, "norm", "--form", "poly:x1",
                       "--kind", "luxemburg", "--phi", "cubic:3")
    assert code == 2 and cli.PHI_SPECS in err


@pytest.mark.parametrize("phi", ["power:inf", "power:nan", "power_log:inf"])
def test_norm_rejects_a_non_finite_exponent(capsys, phi):
    code, out, err = run(capsys, "norm", "--form", "poly:x1",
                         "--kind", "luxemburg", "--phi", phi)
    assert code == 2 and not out
    name, _, p = phi.partition(":")
    assert f"{name} exponent must be a finite number >= 1, got {p}" in err


def test_norm_rejects_bad_form(capsys):
    code, _, err = run(capsys, "norm", "--form", "corpus:missing",
                       "--kind", "lp", "--p", "2")
    assert code == 2


@pytest.mark.parametrize("depth", [490, 3000])
def test_norm_rejects_deep_nesting(capsys, depth):
    code, _, err = run(capsys, "norm", "--form", "poly:" + "-" * depth + "x1",
                       "--kind", "lp", "--p", "2")
    assert code == 2
    assert "nests deeper" in err


@pytest.mark.parametrize("dims, resolution", [("2", "1001"), ("3", "101")])
def test_norm_rejects_resolution_over_the_node_budget(capsys, monkeypatch, dims, resolution):
    # the budget load_config applies, checked before any quadrature is built
    def no_quadrature(*args):
        raise AssertionError("a quadrature was built")
    monkeypatch.setattr(Box, "_build_quadrature", no_quadrature)
    code, out, err = run(capsys, "norm", "--form", "poly:x1", "--kind", "lp",
                         "--dims", dims, "--resolution", resolution)
    assert code == 2 and not out
    assert "--resolution" in err and "--dims" in err and str(NODE_BUDGET) in err


def test_norm_oscillation_defaults_are_the_config_defaults():
    args = cli.build_parser().parse_args(["norm", "--form", "zero", "--kind", "bmo"])
    assert (args.k, args.sigma, args.ball_count) == (
        DEFAULT_CONFIG["k"], DEFAULT_CONFIG["sigma"], DEFAULT_CONFIG["ball_count"])


def test_norm_dims_is_2_or_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--form", "poly:x1", "--kind", "lp", "--dims", "1"])
    assert exc.value.code == 2
    assert "--dims" in capsys.readouterr().err


# ---------------------------------------------------------------- verify

TINY = {"grid_resolution": 11, "ball_resolution": 7, "ball_count": 4,
        "stability_check": False, "verifiers": ["thm_bmo_le_lip"]}


def write_config(tmp_path, extra=None):
    cfg = dict(TINY, **(extra or {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_emits_json(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--config", write_config(tmp_path))
    assert code == 0, err
    payload = json.loads(out)
    names = [r["inequality"] for r in payload["reports"]]
    assert names == ["thm_bmo_le_lip"]
    assert payload["reports"][0]["status"] == "ok"


def test_verify_emits_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path),
                       "--output", "csv")
    assert code == 0
    assert out.splitlines()[0] == "inequality,entry,lhs,rhs,ratio,flags"


def test_verify_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path),
                       "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["reports"]


def test_verify_reports_an_unwritable_out_path(tmp_path, capsys):
    # a usage error, not a verification failure, and no traceback
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--config", write_config(tmp_path),
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]
    assert not target.parent.exists()


def test_verify_reads_config_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORLICZFORMS_CONFIG", write_config(tmp_path))
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)["reports"]


def test_verify_no_stability_overrides_config(tmp_path, capsys):
    path = write_config(tmp_path, {"stability_check": True})
    code, out, _ = run(capsys, "verify", "--config", path, "--no-stability")
    assert code == 0
    assert json.loads(out)["reports"][0]["stability"] is None


def test_verify_rejects_bad_config_with_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid_res": 21, "sigma": 0.5}))
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "grid_res" in err and "sigma" in err  # all violations listed


def test_verify_rejects_empty_verifier_list(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--config",
                         write_config(tmp_path, {"verifiers": []}))
    assert code == 2
    assert "verifiers" in err and out == ""


def test_verify_rejects_non_positive_weight_without_traceback(tmp_path):
    path = write_config(tmp_path, {
        "verifiers": ["weighted_lipschitz"],
        "weights": [{"name": "custom", "expression": "x1 - 0.5"}]})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "orliczforms.cli", "verify",
                           "--config", path], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "weights[0]" in proc.stderr and "not positive" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("center", [[0.5, "a"], [0.5, None]])
def test_verify_rejects_bad_weight_center(tmp_path, capsys, center):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": [{"name": "power", "exponent": 0.5,
                                             "center": center}]}))
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert code == 2 and out == ""
    assert "weights[0]: center must be a length-2 point" in err
    assert "weighted_lipschitz" not in err


def test_verify_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--config",
                       str(tmp_path / "absent.json"))
    assert code == 2
    assert err.strip()


# ---------------------------------------------------------------- others

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert "-- dims = 3" in out


# numpy is the only runtime dependency: with every import of scipy made to
# fail, the acceptance suite and the selftest still run
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from orliczforms import load_config, run_suite
from orliczforms.cli import main
reports = run_suite(load_config(overrides={"grid_resolution": 27, "ball_resolution": 9,
                                           "ball_count": 12, "stability_check": True}))
assert len(reports) == 11, len(reports)
sys.exit(main(["selftest"]))
"""


def test_suite_and_selftest_run_without_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_corpus_list_text(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--no-admission")
    assert code == 0
    assert "poly-closed-1form" in out


def test_corpus_list_json(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--no-admission",
                       "--output", "json", "--dims", "3")
    assert code == 0
    entries = json.loads(out)
    assert any(e["id"] == "poly-closed-2form" for e in entries)
