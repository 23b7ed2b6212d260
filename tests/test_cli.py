import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslreach import cli, dynamics, models, qsl, reachset


def run(args):
    return cli.main(args)


def report_value(output: str, key: str) -> str:
    for line in output.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(f"{key!r} not found in output:\n{output}")


class TestAngleParsing:
    def test_plain_radians(self):
        assert cli.parse_angle("1.5") == 1.5

    def test_pi_suffix(self):
        assert_allclose(cli.parse_angle("0.25pi"), math.pi / 4)
        assert_allclose(cli.parse_angle("pi"), math.pi)
        assert_allclose(cli.parse_angle("-0.5pi"), -math.pi / 2)
        assert_allclose(cli.parse_angle("2PI"), 2 * math.pi)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_angle("piipi")


class TestBoundCommand:
    def test_qubit_reference_values(self, capsys):
        assert run(
            ["bound", "--model", "qubit", "--theta", "0", "--gamma", "1",
             "--omega", "1", "--lambda", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "A")), math.sqrt(2), atol=1e-7)
        assert float(report_value(out, "E")) == 1.0
        assert_allclose(float(report_value(out, "T_star")), 0.532839975, atol=1e-8)
        assert_allclose(float(report_value(out, "T_dc")), 1.0, atol=1e-8)
        assert report_value(out, "larger") == "T_dc"

    def test_qubit_half_radius(self, capsys):
        # amplitude damping from |1>: lambda^2 = 1 - e^{-t} reaches 1/4 at
        # t = ln(4/3) = 0.2877; A = sqrt(2), E = 1 give T_dc = sqrt(2)/4/A = 1/4
        # and T* = sqrt(2)/2 - ln(1 + sqrt(2)/2) = 0.1723, both below it
        assert run(
            ["bound", "--model", "qubit", "--theta", "0", "--gamma", "1",
             "--omega", "1", "--lambda", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        t_star = math.sqrt(2) / 2 - math.log1p(math.sqrt(2) / 2)
        assert_allclose(float(report_value(out, "T_star")), t_star, atol=1e-8)
        assert_allclose(float(report_value(out, "T_dc")), 0.25, atol=1e-8)
        assert report_value(out, "larger") == "T_dc"

    def test_gate_bound_saturating_rotation(self, capsys):
        assert run(
            ["bound", "--model", "qubit-gate", "--theta", "0",
             "--beta", "1.0471976", "--omega", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "T_star")), 0.5, atol=1e-6)
        assert_allclose(float(report_value(out, "A_prime")), 2.0, atol=1e-7)

    def test_gate_bound_uses_the_phase(self, capsys):
        # the generic gate route at any phi: A' and the gate radius both move
        argv = ["bound", "--model", "qubit-gate", "--theta", "0.3", "--omega", "1.2",
                "--u-max", "0.7", "--alpha", "0.9", "--beta", "1.4", "--format", "json"]
        reports = {}
        for phi in (0.0, 0.5):
            assert run(argv + ["--phi", str(phi)]) == 0
            reports[phi] = json.loads(capsys.readouterr().out)
        p = models.QubitParams(theta=0.3, phi=0.5, omega=1.2, u_max=0.7)
        coeffs = qsl.generic_coefficients(models.qubit_spec(p, True))
        fid = models.gate_fidelity(models.qubit_state(p),
                                   models.su2_gate(models.GateParams(0.9, 1.4)))
        lam = qsl.radius_from_fidelity(fid)
        assert reports[0.5]["A_prime"] == coeffs.speed
        assert reports[0.5]["lambda"] == lam
        assert reports[0.5]["T_star"] == qsl.qsl_time(coeffs, lam)
        for key in ("A_prime", "lambda", "T_star"):
            assert reports[0.5][key] != reports[0.0][key]

    def test_dark_bell_state_is_unreachable(self, capsys):
        assert run(
            ["bound", "--model", "bell", "--state", "psi-minus", "--gamma", "1",
             "--lambda", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert report_value(out, "T_star") == "inf"

    def test_identity_gate_has_zero_radius(self, capsys):
        # G(0, 0) leaves the state in place: gate_fidelity's roundoff must
        # not read as a radius of 1.5e-8
        assert run(["bound", "--model", "qubit-gate", "--theta", "0.3",
                    "--alpha", "0", "--beta", "0"]) == 0
        out = capsys.readouterr().out
        for key in ("lambda", "T_star", "T_dc"):
            assert report_value(out, key) == "0"
        assert report_value(out, "larger") == "equal"

    def test_qutrit_gate(self, capsys):
        assert run(
            ["bound", "--model", "qutrit-gate", "--alpha", "0", "--beta", "0.25pi",
             "--omega", "1", "--u-max", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "T_star")), math.sqrt(0.5) / 2, atol=1e-8)

    def test_target_theta_alternative(self, capsys):
        assert run(
            ["bound", "--model", "qubit", "--theta", "0", "--gamma", "1",
             "--target-theta", "0.5pi"]
        ) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "lambda")), 1.0, atol=1e-10)

    def test_json_format(self, capsys):
        assert run(
            ["bound", "--model", "bell", "--state", "psi-minus", "--gamma", "1",
             "--lambda", "0.5", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_star"] == "inf"
        assert payload["larger"] == "equal"

    def test_missing_model_is_config_error(self, capsys):
        assert run(["bound", "--lambda", "0.5"]) == 2
        assert capsys.readouterr().err == "error: a model is required: --model\n"

    def test_missing_target_is_config_error(self, capsys):
        assert run(["bound", "--model", "qubit", "--theta", "0"]) == 2
        assert "--lambda" in capsys.readouterr().err

    def test_out_of_range_parameter_names_range(self, capsys):
        assert run(["bound", "--model", "qubit", "--theta", "9", "--lambda", "1"]) == 2
        assert "[0, pi]" in capsys.readouterr().err

    def test_conflicting_targets(self, capsys):
        assert run(
            ["bound", "--model", "qubit", "--theta", "0", "--lambda", "0.5",
             "--target-theta", "0.5pi"]
        ) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["bound", "--frequency", "1"]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0


class TestSimulateCommand:
    def test_amplitude_damping_trajectory(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        assert run(
            ["simulate", "--model", "qubit", "--theta", "0", "--gamma", "1",
             "--T", "1", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,theta,fidelity,trace_err"
        final_fidelity = float(lines[-1].split(",")[2])
        assert abs(final_fidelity - math.exp(-1.0)) < 1e-5
        summary = capsys.readouterr().out
        assert "bound holds" in summary

    def test_static_system_stays_put(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        assert run(
            ["simulate", "--model", "qubit", "--theta", "0", "--gamma", "0",
             "--T", "0.2", "--out", str(out_path)]
        ) == 0
        thetas = [float(l.split(",")[1]) for l in out_path.read_text().splitlines()[1:]]
        assert max(thetas) == 0.0

    def test_bell_model(self, tmp_path, capsys):
        out_path = tmp_path / "bell.csv"
        assert run(
            ["simulate", "--model", "bell", "--state", "psi-minus", "--gamma", "1",
             "--T", "0.5", "--out", str(out_path)]
        ) == 0
        assert "bound holds" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out_path = tmp_path / "traj.json"
        assert run(
            ["simulate", "--model", "qubit", "--theta", "0", "--gamma", "1",
             "--T", "0.01", "--out", str(out_path), "--format", "json"]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["lambda"] >= 0.0
        assert payload["trajectory"][0]["t"] == 0.0

    @pytest.mark.parametrize("model_args,spec", [
        (["--model", "qubit", "--theta", "0.7", "--phi", "0.3", "--gamma", "0.4"],
         models.qubit_spec(models.QubitParams(theta=0.7, phi=0.3, gamma=0.4))),
        (["--model", "bell", "--state", "psi-plus", "--gamma", "0.6"],
         models.bell_spec("psi-plus", 0.6)),
    ], ids=["qubit", "bell"])
    @pytest.mark.parametrize("out", ["file", "-"], ids=["file", "stdout"])
    def test_json_equals_json_dumps_of_payload(self, tmp_path, capsys, model_args, spec, out):
        path = tmp_path / "traj.json"
        assert run(["simulate", *model_args, "--T", "0.05", "--format", "json",
                    "--out", str(path) if out == "file" else "-"]) == 0
        text = path.read_text() if out == "file" else capsys.readouterr().out
        # the reference: json.dumps over one dict per row plus the summary
        traj = dynamics.integrate(spec, 0.05)
        cols = traj.columns()
        rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
        theta_t = float(traj.thetas[-1])
        lam = qsl.radius_from_fidelity(traj.fidelities[-1])
        t_star = qsl.qsl_time(qsl.generic_coefficients(spec), lam)
        payload = {"trajectory": rows, "summary": {
            "theta_T": theta_t, "lambda": lam, "t_star": t_star, "margin": 0.05 - t_star}}
        assert text == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("model_args", [["--model", "qubit", "--theta", "0.7"],
                                            ["--model", "bell", "--state", "psi-plus"]],
                             ids=["qubit", "bell"])
    def test_json_summary_reads_the_last_row(self, tmp_path, model_args):
        # theta_T is the last row's theta and lambda the radius of its
        # fidelity, bit for bit
        path = tmp_path / "traj.json"
        assert run(["simulate", *model_args, "--T", "0.3", "--format", "json",
                    "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        last, summary = payload["trajectory"][-1], payload["summary"]
        assert last["t"] == 0.3 and last["theta"] > 0.0
        assert summary["theta_T"] == last["theta"]
        assert summary["lambda"] == qsl.radius_from_fidelity(last["fidelity"])

    def test_json_to_stdout_is_one_document(self, capsys):
        assert run(["simulate", "--T", "0.002", "--format", "json", "--out", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert set(payload) == {"trajectory", "summary"}
        assert captured.err.startswith("theta_T = ")
        assert "bound holds" in captured.err

    def test_csv_to_stdout_is_header_and_rows(self, capsys):
        assert run(["simulate", "--T", "0.01", "--out", "-"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,theta,fidelity,trace_err"
        assert len(lines) == 1 + 11
        assert all(len(line.split(",")) == 4 for line in lines)
        assert captured.err.startswith("theta_T = ")

    def test_summary_stays_on_stdout_with_a_file(self, tmp_path, capsys):
        assert run(["simulate", "--T", "0.01", "--out", str(tmp_path / "t.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("theta_T = ")
        assert captured.err == ""

    def test_unstable_step_exits_3(self, tmp_path, capsys):
        assert run(
            ["simulate", "--model", "qubit", "--theta", "0", "--gamma", "40",
             "--T", "2", "--dt", "0.5", "--out", str(tmp_path / "x.csv")]
        ) == 3
        assert "integration failure" in capsys.readouterr().err

    def test_invalid_time_config(self, capsys):
        assert run(["simulate", "--model", "qubit", "--T", "-1"]) == 2

    def test_unknown_format_writes_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "x.xml"
        assert run(["simulate", "--T", "0.1", "--format", "xml",
                    "--out", str(out_path)]) == 2
        assert not out_path.exists()
        assert "format" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_lambda_file(self, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert run(
            ["sweep-lambda", "--gamma", "0", "--points", "11",
             "--horizons", "0.3,0.5", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "theta,gamma,omega,T,lambda_max"
        assert len(lines) == 1 + 11 * 2
        # spot check: theta = pi/4 at T = 0.5 reaches radius 0.5
        row = [l for l in lines if l.startswith("0.785398163,") and ",0.5," in l]
        assert row and abs(float(row[0].split(",")[-1]) - 0.5) < 1e-7

    def test_gate_map_file(self, tmp_path):
        out_path = tmp_path / "gates.csv"
        assert run(
            ["gate-map", "--model", "qubit", "--theta", "0", "--points", "6",
             "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "model,theta,alpha,beta,t_star,reach_T1,reach_T2,reach_T3"
        assert len(lines) == 1 + 36

    def test_gate_map_qutrit(self, tmp_path):
        out_path = tmp_path / "qutrit.csv"
        assert run(
            ["gate-map", "--model", "qutrit", "--points", "5", "--out", str(out_path)]
        ) == 0
        assert out_path.read_text().splitlines()[1].startswith("qutrit,")

    def test_gate_map_without_drive(self, tmp_path, capsys):
        # theta = pi/4 with u_max = 0: A' = 0, so T* = inf except for gates
        # that leave the state in place: G(0, 0), G(pi, pi) (|+> is its
        # eigenstate) and G(2pi, 0) = -I, rows 0, 14 and 20 of the 5 x 5 map
        out_path = tmp_path / "probe.csv"
        assert run(
            ["gate-map", "--model", "qubit", "--theta", "0.25pi", "--u-max", "0",
             "--points", "5", "--out", str(out_path)]
        ) == 0
        t_star = [l.split(",")[4] for l in out_path.read_text().splitlines()[1:]]
        assert [i for i, t in enumerate(t_star) if t == "0"] == [0, 14, 20]
        assert {t for t in t_star if t != "0"} == {"inf"}

    def test_bell_sweep_file(self, tmp_path):
        out_path = tmp_path / "bell.csv"
        assert run(
            ["bell-sweep", "--gamma-min", "0.1", "--gamma-max", "1",
             "--points", "4", "--T", "0.5", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "state,gamma,T,lambda_max"
        assert len(lines) == 1 + 4 * 4

    def test_bell_sweep_rejects_zero_gamma(self, capsys):
        assert run(["bell-sweep", "--gamma-min", "0", "--points", "4"]) == 2

    def test_stdout_output(self, capsys):
        assert run(["sweep-lambda", "--gamma", "0", "--points", "3",
                    "--horizons", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theta,gamma,omega,T,lambda_max")

    def test_json_rows(self, capsys):
        assert run(["sweep-lambda", "--gamma", "0", "--points", "3",
                    "--horizons", "0.5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert set(rows[0]) == {"theta", "gamma", "omega", "T", "lambda_max"}

    def test_invalid_format(self, capsys):
        assert run(["sweep-lambda", "--gamma", "0", "--points", "3",
                    "--format", "xml"]) == 2


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out_path = tmp_path / "verify.csv"
        assert run(
            ["verify", "--seed", "42", "--trials", "4", "--dims", "2,3",
             "--T", "0.3", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# random systems:")
        assert lines[1] == "trial,seed,dim,T,theta_T,lambda,t_star,margin"
        assert len(lines) == 2 + 8
        err = capsys.readouterr().err
        assert "violations = 0" in err
        excess = float(err.split("max_rate_excess = ")[1].split()[0])
        assert excess <= 1e-12

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            assert run(
                ["verify", "--seed", "11", "--trials", "3", "--dims", "2",
                 "--T", "0.2", "--out", str(p)]
            ) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        fake = {"trial": np.array([0]), "seed": np.array([1]), "dim": np.array([2]),
                "T": np.array([0.5]), "theta_T": np.array([1.0]), "lambda": np.array([0.8]),
                "t_star": np.array([0.9]), "margin": np.array([-0.4]),
                "rate_excess": np.array([-0.1])}
        monkeypatch.setattr("qslreach.reachset.verify_bound", lambda **kw: fake)
        assert run(
            ["verify", "--seed", "1", "--trials", "1", "--dims", "2",
             "--out", str(tmp_path / "v.csv")]
        ) == 4
        err = capsys.readouterr().err
        assert "violations = 1" in err
        assert "max_rate_excess = -0.1" in err
        assert "violation: seed = 1 dim = 2 trial = 0" in err
        header = (tmp_path / "v.csv").read_text().splitlines()[1]
        assert header == "trial,seed,dim,T,theta_T,lambda,t_star,margin"

    def test_one_level_summary_has_no_negative_zero(self, tmp_path, capsys):
        # a 1-level system never moves: its rate excess is -0.0
        assert run(["verify", "--dims", "1", "--trials", "1",
                    "--out", str(tmp_path / "v.csv")]) == 0
        err = capsys.readouterr().err
        assert "max_rate_excess = 0\n" in err


#: Non-finite values that once slipped past the range checks (NaN fails no
#: "x < 0" test) or crashed with a traceback (int(inf) steps).
NON_FINITE_ARGV = [
    ["simulate", "--T", "inf"],
    ["verify", "--T", "inf", "--trials", "2"],
    ["bound", "--model", "qubit", "--gamma", "nan", "--lambda", "0.5"],
    ["sweep-lambda", "--gamma", "nan"],
    ["gate-map", "--u-max", "nan"],
    ["gate-map", "--model", "qutrit", "--omega", "nan"],
    ["bound", "--model", "qubit-gate", "--u-max", "nan"],
    ["sweep-lambda", "--horizons", "nan"],
    ["bell-sweep", "--T", "nan"],
    ["bell-sweep", "--T", "inf"],
    ["bound", "--model", "qubit", "--omega", "inf", "--lambda", "0.5"],
]


#: Finite T and dt whose ratio overflows to an infinite step count, which
#: once crashed with an OverflowError traceback.  The message, then the argv.
OVERFLOWING_STEPS_ARGV = [
    ("T = 1e+308 and dt = 0.001", ["simulate", "--T", "1e308"]),
    ("T = 1.0 and dt = 1e-320", ["simulate", "--T", "1", "--dt", "1e-320"]),
    ("T = 1e+308 and dt = 0.001", ["verify", "--T", "1e308", "--trials", "1"]),
]


#: Dimensions below 1 once crashed (ZeroDivisionError) or failed with
#: numpy's own seed message; a repeated dimension once wrote every one of
#: its trials twice under one (seed, dim, trial).  The message, then the argv.
BAD_DIMS_ARGV = [
    ("dims must be >= 1, got 0", ["verify", "--dims", "0"]),
    ("dims must be >= 1, got -1", ["verify", "--dims", "-1"]),
    ("dims must be distinct, got 2,3,2", ["verify", "--dims", "2,3,2"]),
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV, ids=" ".join)
def test_non_finite_parameter_is_config_error(tmp_path, capsys, argv):
    _assert_config_error(tmp_path, capsys, argv)


@pytest.mark.parametrize("names,argv", OVERFLOWING_STEPS_ARGV,
                         ids=[" ".join(argv) for _, argv in OVERFLOWING_STEPS_ARGV])
def test_overflowing_step_count_is_config_error(tmp_path, capsys, names, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == f"error: T / dt overflows: {names} give too many steps\n"


@pytest.mark.parametrize("message,argv", BAD_DIMS_ARGV,
                         ids=[" ".join(argv) for _, argv in BAD_DIMS_ARGV])
def test_dims_below_one_is_config_error(tmp_path, capsys, message, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == f"error: {message}\n"


def test_negative_seed_is_config_error(tmp_path, capsys):
    err = _assert_config_error(tmp_path, capsys, ["verify", "--seed", "-1", "--trials", "1"])
    assert err == "error: seed must be >= 0, got -1\n"


def test_zero_trials_is_config_error(tmp_path, capsys):
    err = _assert_config_error(tmp_path, capsys, ["verify", "--trials", "0"])
    assert err == "error: trials must be >= 1, got 0\n"


#: What numpy's MemoryError says for ``simulate --T 1e9``'s sample times.
NUMPY_OOM = ("Unable to allocate 7.28 TiB for an array with shape (1000000000001,) "
             "and data type int64")


@pytest.mark.parametrize("exc,message", [
    (MemoryError(NUMPY_OOM), NUMPY_OOM),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_config_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch, exc, message):
    # a command that cannot allocate its arrays: one error line, no traceback;
    # the patched command allocates nothing
    def too_large(cfg):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "simulate", too_large)
    err = _assert_config_error(tmp_path, capsys, ["simulate", "--T", "1e9"])
    assert err == f"error: {message}\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails, and it has no file
    descriptor to point at devnull."""
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["gate-map", "--points", "150", "--format", "json", "--out", "-"],
    ["bound", "--model", "qubit", "--lambda", "0.5"],
    ["verify", "--trials", "2", "--out", "-"],
], ids=["gate-map", "bound", "verify"])
def test_closed_stdout_pipe_exits_141_in_process(capsys, monkeypatch, argv):
    # a reader that went away is not an invalid configuration: exit 141, the
    # code of a writer killed by SIGPIPE, and nothing on stderr
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert run(argv) == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["gate-map", "--points", "150", "--format", "json", "--out", "-"],
    ["bound", "--model", "qubit", "--lambda", "0.5"],
], ids=["gate-map", "bound"])
def test_closed_stdout_pipe_exits_141(argv):
    # the read end is closed before the child writes: a large table fails
    # mid-write, a one-record report at the flush after the command; neither
    # may print a traceback or an "Exception ignored" line at exit.  The
    # child's stdout is block-buffered, as it is by default on a pipe.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "qslreach.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


#: Steps far too large for the system: the health check names the first
#: indefinite state, by its time and worst residual.  The residual, then the argv.
UNSTABLE_ARGV = [
    ("0.00301", ["verify", "--trials", "20", "--T", "4", "--dt", "0.5"]),
    ("9.25e+14", ["simulate", "--theta", "0", "--gamma", "40", "--T", "2", "--dt", "0.5"]),
]


@pytest.mark.parametrize("resid,argv", UNSTABLE_ARGV,
                         ids=[" ".join(argv) for _, argv in UNSTABLE_ARGV])
def test_integration_failure_exits_3(tmp_path, capsys, resid, argv):
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 3
    assert capsys.readouterr().err == (
        f"integration failure: positivity check failed at t = 0.5: worst residual {resid} "
        "exceeds tolerance 1e-08 (step size too large for this system?)\n")


#: Values outside an option's listed choices: the option, then the argv.
BAD_CHOICE_ARGV = [
    ("--model", ["bound", "--model", "spin", "--lambda", "0.5"]),
    ("--format", ["bound", "--model", "qubit", "--lambda", "0.5", "--format", "csv"]),
    ("--model", ["simulate", "--model", "qutrit-gate"]),
    ("--format", ["simulate", "--format", "text"]),
    ("--format", ["sweep-lambda", "--format", "xml"]),
    ("--model", ["gate-map", "--model", "bell"]),
    ("--format", ["bell-sweep", "--format", "xml"]),
    ("--format", ["verify", "--format", "xml"]),
    ("--state", ["bound", "--model", "bell", "--state", "phi", "--lambda", "0.5"]),
    ("--state", ["simulate", "--model", "bell", "--state", "phi"]),
]


@pytest.mark.parametrize("flag,argv", BAD_CHOICE_ARGV,
                         ids=[" ".join(argv) for _, argv in BAD_CHOICE_ARGV])
def test_unlisted_choice_fails_before_any_work(tmp_path, capsys, monkeypatch, flag, argv):
    def work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for name in ("reachset.verify_bound", "reachset.sweep_reachable_radius",
                 "reachset.gate_reach_map", "reachset.bell_sweep", "dynamics.integrate",
                 "qsl.generic_coefficients"):
        monkeypatch.setattr(f"qslreach.{name}", work)
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err.startswith(f"error: {flag}: must be one of ")
    assert err.endswith(f"got {argv[argv.index(flag) + 1]!r}\n")


#: Values their option's parser cannot read, and out-of-range values, which
#: give the value read (--target-theta's range is in test_qsl): the error
#: line, then the argv.
BAD_VALUE_ARGV = [
    ("--trials: invalid literal for int() with base 10: '1.5'", ["verify", "--trials", "1.5"]),
    ("--dims: invalid literal for int() with base 10: 'x'", ["verify", "--dims", "2,x"]),
    ("--theta: could not convert string to float: 'abc'",
     ["bound", "--model", "qubit", "--theta", "abcpi", "--lambda", "0.5"]),
    ("--horizons: could not convert string to float: 'a'", ["sweep-lambda", "--horizons", "a"]),
    ("--lambda must lie in [0, 1], got 2.0", ["bound", "--model", "qubit", "--lambda", "2"]),
    ("--gamma-min must be > 0, got 0.0", ["bell-sweep", "--gamma-min", "0"]),
    ("--gamma-min must be > 0, got -1.0", ["bell-sweep", "--gamma-min", "-1"]),
    ("dt must satisfy 0 < dt <= T, got dt = 0.0 and T = 1.0", ["simulate", "--dt", "0"]),
    ("dt must satisfy 0 < dt <= T, got dt = 2.0 and T = 1.0",
     ["simulate", "--T", "1", "--dt", "2"]),
    ("dt must satisfy 0 < dt <= T, got dt = 0.0 and T = 0.5", ["verify", "--dt", "0"]),
    ("horizons must be strictly increasing, got 0.5,0.3",
     ["sweep-lambda", "--horizons", "0.5,0.3"]),
    ("horizons must be finite and positive, got 0.5,-0.3",
     ["gate-map", "--horizons", "0.5,-0.3"]),
]


@pytest.mark.parametrize("line,argv", BAD_VALUE_ARGV,
                         ids=[" ".join(argv) for _, argv in BAD_VALUE_ARGV])
def test_bad_value_names_its_flag(tmp_path, capsys, line, argv):
    assert _assert_config_error(tmp_path, capsys, argv) == f"error: {line}\n"


def test_bad_config_value_names_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u-max = fast\n")
    err = _assert_config_error(tmp_path, capsys, ["gate-map", "--config", str(cfg)])
    assert err == "error: --u-max: could not convert string to float: 'fast'\n"


#: Axis errors name the flags of their axis: the flags, then the argv.
BAD_AXIS_ARGV = [
    ("--theta-min/--theta-max/--points", ["sweep-lambda", "--points", "1"]),
    ("--alpha-min/--alpha-max/--points", ["gate-map", "--alpha-min", "1", "--alpha-max", "0.5"]),
    ("--beta-min/--beta-max/--points", ["gate-map", "--beta-max", "0"]),
    ("--gamma-min/--gamma-max/--points", ["bell-sweep", "--gamma-min", "0.5",
                                          "--gamma-max", "0.1"]),
]


@pytest.mark.parametrize("flags,argv", BAD_AXIS_ARGV,
                         ids=[" ".join(argv) for _, argv in BAD_AXIS_ARGV])
def test_axis_error_names_its_flags(tmp_path, capsys, flags, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err.startswith(f"error: {flags}: axis ")


#: An axis end outside its angle's domain: the error gives the value typed,
#: not the first grid point past the domain.  The line, then the argv.
BAD_ANGLE_AXIS_ARGV = [
    ("theta must lie in [0, pi], got 4.0", ["sweep-lambda", "--theta-max", "4"]),
    ("alpha must lie in [0, 2pi], got 7.0", ["gate-map", "--alpha-max", "7"]),
    ("beta must lie in [0, pi], got -0.5", ["gate-map", "--beta-min", "-0.5"]),
]


@pytest.mark.parametrize("message,argv", BAD_ANGLE_AXIS_ARGV,
                         ids=[" ".join(argv) for _, argv in BAD_ANGLE_AXIS_ARGV])
def test_angle_axis_error_gives_the_value_typed(tmp_path, capsys, message, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == f"error: {message}\n"


#: Flags a gate model has no use for (it is a closed system, the gate sets
#: lambda, and the qutrit state is fixed): the flag, then the argv.
GATE_FLAG_ARGV = [
    ("--lambda", ["bound", "--model", "qubit-gate", "--beta", "0.3pi", "--lambda", "0.9"]),
    ("--gamma", ["bound", "--model", "qubit-gate", "--beta", "0.3pi", "--gamma", "0.7"]),
    ("--target-theta", ["bound", "--model", "qubit-gate", "--target-theta", "0.2pi"]),
    ("--lambda", ["bound", "--model", "qutrit-gate", "--beta", "0.25pi", "--lambda", "0.5"]),
    ("--gamma", ["bound", "--model", "qutrit-gate", "--gamma", "1"]),
    ("--target-theta", ["bound", "--model", "qutrit-gate", "--target-theta", "0.2pi"]),
    ("--theta", ["bound", "--model", "qutrit-gate", "--beta", "0.25pi", "--theta", "0.3"]),
    ("--phi", ["bound", "--model", "qutrit-gate", "--beta", "0.25pi", "--phi", "0.5"]),
    ("--state", ["bound", "--model", "qutrit-gate", "--state", "psi-plus"]),
    ("--state", ["bound", "--model", "qubit-gate", "--beta", "0.3pi", "--state", "psi-minus"]),
]


@pytest.mark.parametrize("flag,argv", GATE_FLAG_ARGV,
                         ids=[" ".join(argv) for _, argv in GATE_FLAG_ARGV])
def test_gate_model_rejects_physics_flags(tmp_path, capsys, flag, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == f"error: {flag} does not apply to --model {argv[2]}\n"


@pytest.mark.parametrize("model", ["qubit-gate", "qutrit-gate"])
def test_gate_model_rejects_physics_keys_in_a_config_file(tmp_path, capsys, model):
    cfg = tmp_path / "run.cfg"
    for line, flag in (("lambda = 0.5", "--lambda"), ("gamma = 0.3", "--gamma"),
                       ("target-theta = 0.1pi", "--target-theta")):
        cfg.write_text(f"model = {model}\n{line}\n")
        err = _assert_config_error(tmp_path, capsys, ["bound", "--config", str(cfg)])
        assert err == f"error: {flag} does not apply to --model {model}\n"
    # a zero decay rate is the gate model's own
    assert run(["bound", "--model", model, "--gamma", "0"]) == 0


#: Options the other models have no use for, each set to a value other
#: than its default: the flag, then the argv.  Each once printed the same
#: bytes as the argv without it.
UNUSED_FLAG_ARGV = [
    *((flag, ["bound", "--model", "bell", "--state", "psi-plus", "--gamma", "0.5",
              "--lambda", "0.5", flag, value])
      for flag, value in (("--theta", "0.3"), ("--phi", "0.2"), ("--omega", "5"),
                          ("--u-max", "3"), ("--alpha", "1"), ("--beta", "1"))),
    *((flag, ["bound", "--model", "qubit", "--theta", "0.3", "--lambda", "0.5", flag, value])
      for flag, value in (("--u-max", "2"), ("--alpha", "1"), ("--beta", "1"),
                          ("--state", "psi-plus"))),
    *((flag, ["simulate", "--model", "bell", "--T", "0.01", flag, value])
      for flag, value in (("--theta", "0.3"), ("--phi", "0.2"), ("--omega", "2"))),
    ("--state", ["simulate", "--model", "qubit", "--T", "0.01", "--state", "psi-plus"]),
    ("--theta", ["gate-map", "--model", "qutrit", "--points", "3", "--theta", "0.3"]),
]


@pytest.mark.parametrize("flag,argv", UNUSED_FLAG_ARGV,
                         ids=[" ".join(argv) for _, argv in UNUSED_FLAG_ARGV])
def test_model_rejects_unused_flags(tmp_path, capsys, flag, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == f"error: {flag} does not apply to --model {argv[2]}\n"


def test_unused_key_in_a_config_file_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = bell\nomega = 2\n")
    err = _assert_config_error(tmp_path, capsys, ["simulate", "--T", "0.01",
                                                  "--config", str(cfg)])
    assert err == "error: --omega does not apply to --model bell\n"


def test_unused_flags_at_their_defaults_are_accepted(tmp_path, capsys):
    assert run(["bound", "--model", "bell", "--state", "psi-plus", "--lambda", "0.5",
                "--theta", "0", "--omega", "1", "--u-max", "1"]) == 0
    assert run(["simulate", "--model", "qubit", "--T", "0.01", "--state", "phi-plus",
                "--out", str(tmp_path / "t.csv")]) == 0
    assert run(["gate-map", "--model", "qutrit", "--points", "3", "--theta", "0",
                "--out", str(tmp_path / "g.csv")]) == 0


#: gate-map's closed forms against bound's generic route, one map per
#: entry: the drive at theta = pi/4 without control vanishes, and at
#: omega = 1e-13 A' lies between the degeneracy thresholds of the old code.
GATE_ROUTE_MAPS = [
    ("qubit", ["--theta", "0"]),
    ("qubit", ["--theta", "0.3"]),
    ("qubit", ["--theta", "0.25pi", "--u-max", "0"]),
    ("qubit", ["--theta", "0", "--omega", "1e-13", "--u-max", "0"]),
    ("qutrit", []),
    ("qutrit", ["--omega", "1e-13", "--u-max", "0"]),
]


@pytest.mark.parametrize("model,args", GATE_ROUTE_MAPS,
                         ids=[" ".join([m, *a]) for m, a in GATE_ROUTE_MAPS])
def test_gate_map_cells_equal_bound(capsys, model, args):
    # every cell's t_star is bound's T_star at the same (exact) angles: both
    # 0, both inf, or equal to 5e-9 relative
    assert run(["gate-map", "--model", model, *args, "--points", "6",
                "--format", "json", "--out", "-"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 36
    bad = []
    for row in rows:
        assert run(["bound", "--model", f"{model}-gate", *args, "--alpha", repr(row["alpha"]),
                    "--beta", repr(row["beta"]), "--format", "json"]) == 0
        bound = float(json.loads(capsys.readouterr().out)["T_star"])
        cell = float(row["t_star"])
        same = (cell == bound if bound in (0.0, math.inf) or cell in (0.0, math.inf)
                else abs(cell - bound) <= 5e-9 * bound)
        if not same:
            bad.append((row["alpha"], row["beta"], cell, bound))
    assert not bad, f"{len(bad)} of 36 cells disagree: {bad[:3]}"


#: Rates so large that A overflows a double (np.linalg.norm squares the
#: entries): each once wrote nan or a bound of 0 with exit 0, or blamed a
#: negative coefficient, and printed numpy RuntimeWarnings.
OVERFLOW_ARGV = [
    ["sweep-lambda", "--gamma", "1e155", "--points", "3", "--horizons", "0.5"],
    ["bound", "--model", "qubit", "--theta", "0.3", "--gamma", "1e160", "--lambda", "0.5"],
    ["bound", "--model", "qubit", "--theta", "0.3", "--omega", "1e200", "--lambda", "0.5"],
    ["bound", "--model", "qutrit-gate", "--omega", "1e200"],
    ["gate-map", "--omega", "1e308", "--points", "3"],
    ["bell-sweep", "--gamma-max", "1e308", "--points", "3"],
    ["simulate", "--gamma", "1e160", "--T", "0.01"],
]


@pytest.mark.parametrize("argv", OVERFLOW_ARGV, ids=" ".join)
def test_overflowing_coefficient_is_config_error(tmp_path, capsys, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == "error: coefficient A is not finite: a rate or frequency is too large\n"


#: Frequencies so large that G overflows a double while A stays finite
#: (theta = 0 is an eigenstate): in _to_coords, then in lindblad's add.
#: Each once blamed the step size, exit 3, after numpy warnings.
OVERFLOW_GENERATOR_ARGV = [
    ["simulate", "--theta", "0", "--omega", "1e308", "--gamma", "1", "--T", "0.004",
     "--dt", "0.001"],
    ["simulate", "--theta", "0", "--omega", "1.7e308", "--gamma", "1e154", "--T", "0.004",
     "--dt", "0.001"],
]


@pytest.mark.parametrize("argv", OVERFLOW_GENERATOR_ARGV, ids=" ".join)
def test_overflowing_generator_is_config_error(tmp_path, capsys, argv):
    err = _assert_config_error(tmp_path, capsys, argv)
    assert err == "error: generator G is not finite: a rate or frequency is too large\n"


def test_overflowing_step_of_a_finite_generator_exits_3(tmp_path, capsys):
    # G is finite at omega = 1e200, but its RK4 step overflows: the health
    # check names the first state, in one line and with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--theta", "0", "--omega", "1e200", "--gamma", "1", "--T", "0.004",
                    "--dt", "0.001", "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err == (
        "integration failure: non-finite check failed at t = 0.001: worst residual inf "
        "exceeds tolerance 0 (step size too large for this system?)\n")


def test_overflowing_a_squared_sweeps_without_warning(capsys):
    # A^2 overflows above A ~ 1.34e154: the re-check of each radius
    # evaluates T* without it, so the capped radii come with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep-lambda", "--omega", "1e154", "--gamma", "3", "--points", "4",
                    "--horizons", "0.5", "--out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "theta,gamma,omega,T,lambda_max"
    assert rows[1:] == [f"{t},3,1e+154,0.5,1" for t in ("0", "0.523598776", "1.04719755",
                                                         "1.57079633")]


def test_overflowing_radius_argument_caps_at_one(capsys):
    # A is finite at theta = pi/4 but c = A^2 T / (2E) overflows; the radius
    # is the capped 1, not nan, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep-lambda", "--omega", "5e153", "--gamma", "1e-10", "--points", "3",
                    "--horizons", "0.5", "--out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "theta,gamma,omega,T,lambda_max"
    assert rows[2] == "0.785398163,1e-10,5e+153,0.5,1"


def _assert_config_error(tmp_path, capsys, argv) -> str:
    """Exit 2 with one "error:" line, no output and no file; returns the
    line."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ([] if argv[0] == "bound" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
    return captured.err


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_in_one_process_match_separate_runs(self, tmp_path, capsys):
        argvs = [
            ["verify", "--seed", "3", "--trials", "2", "--dims", "2,3", "--T", "0.1"],
            ["gate-map", "--model", "qutrit", "--points", "5", "--format", "json"],
            ["verify", "--seed", "8", "--trials", "3", "--dims", "2", "--dt", "2e-3",
             "--format", "json"],
        ]

        def outputs(tag, fresh_parser):
            result = []
            for i, argv in enumerate(argvs):
                if fresh_parser:
                    cli.build_parser.cache_clear()
                path = tmp_path / f"{tag}{i}.out"
                code = run(argv + ["--out", str(path)])
                result.append((code, path.read_bytes(), capsys.readouterr()))
            return result

        shared = outputs("shared", fresh_parser=False)
        separate = outputs("separate", fresh_parser=True)
        assert [code for code, *_ in shared] == [0, 0, 0]
        assert shared == separate


class TestJsonReport:
    def test_infinities_keep_their_sign(self):
        text = reachset.format_record({"t_star": math.inf, "margin": -math.inf, "A": 0.5}, "json")
        assert json.loads(text) == {"t_star": "inf", "margin": "-inf", "A": 0.5}


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# bound run\nmodel = qubit\ntheta = 0\ngamma = 1\nomega = 1\nlambda = 1\n"
        )
        assert run(["bound", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "T_star")), 0.532839975, atol=1e-8)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = qubit\ntheta = 0.25pi\ngamma = 1\nlambda = 1\n")
        assert run(["bound", "--config", str(cfg), "--theta", "0"]) == 0
        out = capsys.readouterr().out
        # theta = 0 gives E = gamma cos^4(0) = 1; at theta = pi/4 it would be 0.25
        assert float(report_value(out, "E")) == 1.0

    def test_angles_accept_pi_suffix_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = qubit\ntheta = 0.25pi\ngamma = 1\nlambda = 0.5\n")
        assert run(["bound", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "E")), 0.25, atol=1e-7)

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = qubit\nfrequency = 3\n")
        assert run(["bound", "--config", str(cfg)]) == 2
        assert "frequency" in capsys.readouterr().err

    def test_first_unknown_key_in_file_order_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = qubit\nzeta = 1\nlambda = 0.5\nalpha_ = 2\n")
        err = _assert_config_error(tmp_path, capsys, ["bound", "--config", str(cfg)])
        assert err == "error: unknown config key 'zeta' for command 'bound'\n"

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run(["bound", "--config", str(cfg)]) == 2

    def test_missing_file_is_config_error(self, capsys):
        assert run(["bound", "--config", "/nonexistent/run.cfg"]) == 2


#: One valid value, other than the default, for each option name; a
#: (command, name) entry overrides the name's entry for that command.
NON_DEFAULT = {
    "model": "bell", ("bound", "model"): "qubit", ("gate-map", "model"): "qutrit",
    "theta": "0.3", "phi": "0.2", "gamma": "0.5", "omega": "2", "u_max": "2",
    "alpha": "0.5", "beta": "0.25pi", "lambda": "0.5", "target_theta": "0.3",
    "state": "psi-plus", "format": "json", "out": "x.csv", "T": "0.25", "dt": "0.01",
    "theta_min": "0.1", "theta_max": "1", "points": "7", "horizons": "0.1,0.2",
    "alpha_min": "0.1", "alpha_max": "3", "beta_min": "0.1", "beta_max": "2",
    "gamma_min": "0.1", "gamma_max": "3", "seed": "7", "trials": "3", "dims": "2,5",
}

OPTION_FLAGS = [(command, row[0]) for command, rows in cli._OPTIONS.items() for row in rows]


@pytest.mark.parametrize("command,flag", OPTION_FLAGS, ids=[" ".join(c) for c in OPTION_FLAGS])
def test_flag_and_config_key_resolve_alike(tmp_path, command, flag):
    """``--flag v`` and the config line ``name = v`` give the same config, or
    the same error where the option does not apply to the default model."""
    name = flag[2:].replace("-", "_")
    value = NON_DEFAULT.get((command, name), NON_DEFAULT[name])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")

    def resolve(*argv):
        try:
            return cli.resolve_config(cli.build_parser().parse_args([command, *argv]))
        except ValueError as exc:
            return str(exc)

    by_flag, by_key, default = resolve(flag, value), resolve("--config", str(cfg)), resolve()
    assert by_flag == by_key
    if (command, flag) == ("simulate", "--state"):
        assert by_flag == "--state does not apply to --model qubit"
    else:
        assert by_flag[name] != default[name]
        assert {k: v for k, v in by_flag.items() if k != name} == \
            {k: v for k, v in default.items() if k != name}
