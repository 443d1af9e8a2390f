import json
import math
from importlib import resources

import numpy as np
import pytest

import divrisk as dr
from divrisk.cli import RunConfig, build_parser, main, run


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.fixture()
def samples_csv(tmp_path):
    f = tmp_path / "samples.csv"
    f.write_text("3.0\n3.0\n3.0\n")
    return str(f)


@pytest.fixture()
def pm1_csv(tmp_path):
    f = tmp_path / "pm1.csv"
    f.write_text("-1.0\n1.0\n")
    return str(f)


def test_risk_constant(capsys, samples_csv):
    status, out, _ = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "0.5", "--input", samples_csv
    )
    assert status == 0
    rep = json.loads(out)
    assert rep["value"] == 3.0
    assert rep["attained"] is False
    assert rep["t_star"] is None


def test_avar(capsys, tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1\n2\n3\n4\n")
    status, out, _ = run_cli(capsys, "--command", "avar", "--alpha", "0.5", "--input", str(f))
    assert status == 0
    assert json.loads(out)["value"] == 3.5


def test_dual(capsys, pm1_csv):
    status, out, _ = run_cli(
        capsys, "--command", "dual", "--divergence", "chi2", "--beta", "0.25", "--input", pm1_csv
    )
    assert status == 0
    rep = json.loads(out)
    assert rep["objective"] == pytest.approx(0.5, abs=1e-6)
    assert rep["z"][0] == pytest.approx(0.5, abs=1e-4)
    assert rep["z"][1] == pytest.approx(1.5, abs=1e-4)


def test_risk_dual_agreement(capsys, tmp_path):
    f = tmp_path / "s.csv"
    rng = np.random.default_rng(71)
    f.write_text("\n".join(str(v) for v in rng.normal(0, 1, 6)))
    _, out_r, _ = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "0.4", "--input", str(f)
    )
    _, out_d, _ = run_cli(
        capsys, "--command", "dual", "--divergence", "kl", "--beta", "0.4", "--input", str(f)
    )
    assert abs(json.loads(out_r)["value"] - json.loads(out_d)["objective"]) <= 1e-5


def test_dual_runs_the_core_once(capsys, tmp_path, monkeypatch):
    from divrisk import risk

    schema = json.loads(resources.files("divrisk").joinpath("report_schema.json").read_text())
    f = tmp_path / "s.csv"
    rng = np.random.default_rng(72)
    f.write_text("\n".join(str(v) for v in rng.normal(0, 1, 40)))
    spec, dist = dr.make_builtin_divergence("kl"), dr.from_csv(str(f))
    gap = abs(dr.solve_dual(dist, spec, 0.4).objective - dr.evaluate_primal(dist, spec, 0.4).value)
    core, calls = risk._characterize, []

    def counted(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(risk, "_characterize", counted)
    status, out, err = run_cli(
        capsys, "--command", "dual", "--divergence", "kl", "--beta", "0.4", "--input", str(f)
    )
    assert status == 0, err
    assert len(calls) == 1
    rep = json.loads(out)
    assert list(rep.keys()) == schema["dual"]
    assert rep["duality_gap"] == gap


def test_json_round_trip_is_stable(capsys, tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("0.1\n-2.7\n1.30000000000004\n")
    args = ("--command", "risk", "--divergence", "chi2", "--beta", "0.7", "--input", str(f))
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    rep = json.loads(out1)
    # every float survives the 17-significant-digit rendering bit-for-bit
    for key in ("value", "mean", "esssup", "alpha_bar"):
        assert float(format(rep[key], ".17g")) == rep[key]


def test_report_keys_match_frozen_schema(capsys, tmp_path):
    schema = json.loads(resources.files("divrisk").joinpath("report_schema.json").read_text())
    f = tmp_path / "s.csv"
    f.write_text("0.5\n1.5\n-0.5\n")
    p = tmp_path / "panel.csv"
    p.write_text("a,b\n1.0,0.0\n0.0,1.0\n")
    cases = {
        "risk": ("--command", "risk", "--divergence", "kl", "--beta", "0.5", "--input", str(f)),
        "dual": ("--command", "dual", "--divergence", "kl", "--beta", "0.5", "--input", str(f)),
        "norm": ("--command", "norm", "--divergence", "chi2", "--beta", "0.5", "--input", str(f)),
        "dualnorm": ("--command", "dualnorm", "--divergence", "chi2", "--beta", "0.5", "--input", str(f)),
        "avar": ("--command", "avar", "--alpha", "0.25", "--input", str(f)),
        "portfolio": ("--command", "portfolio", "--divergence", "chi2", "--beta", "0.5", "--input", str(p)),
    }
    for command, argv in cases.items():
        status, out, err = run_cli(capsys, *argv)
        assert status == 0, err
        assert list(json.loads(out).keys()) == schema[command]


def test_text_output(capsys, samples_csv):
    status, out, _ = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "0.5",
        "--input", samples_csv, "--output", "text",
    )
    assert status == 0
    assert "value: 3.0" in out


def test_weighted_csv(capsys, tmp_path):
    f = tmp_path / "w.csv"
    f.write_text("0.0, 1\n1.0, 3\n")
    status, out, _ = run_cli(capsys, "--command", "avar", "--alpha", "0.0", "--input", str(f))
    assert status == 0
    assert json.loads(out)["value"] == pytest.approx(0.75)


def test_error_exits(capsys, tmp_path, samples_csv):
    # missing file
    status, _, err = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "0.5",
        "--input", str(tmp_path / "missing.csv"),
    )
    assert status == 2 and err
    # unparsable CSV reports the offending line
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\noops\n")
    status, _, err = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "0.5", "--input", str(bad)
    )
    assert status == 2 and "line 2" in err
    # invalid beta
    status, _, _ = run_cli(
        capsys, "--command", "risk", "--divergence", "kl", "--beta", "-1", "--input", samples_csv
    )
    assert status == 2
    # unknown divergence
    status, _, _ = run_cli(
        capsys, "--command", "risk", "--divergence", "nope", "--beta", "0.5", "--input", samples_csv
    )
    assert status == 2
    # avar without alpha
    status, _, _ = run_cli(capsys, "--command", "avar", "--input", samples_csv)
    assert status == 2


def test_runconfig_validation():
    with pytest.raises(dr.InvalidParameterError):
        RunConfig(command="bogus", input_path="x")
    with pytest.raises(dr.InvalidParameterError):
        RunConfig(command="risk", input_path="x", divergence="kl", beta=None)
    with pytest.raises(dr.InvalidParameterError):
        RunConfig(command="avar", input_path="x", alpha=1.5)
    with pytest.raises(dr.InvalidParameterError):
        RunConfig(command="risk", input_path="x", divergence="kl", beta=0.5, output="yaml")


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--input", "x.csv"])
    assert exc.value.code == 2
