import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qslreach import cli


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

    def test_gate_bound_saturating_rotation(self, capsys):
        assert run(
            ["bound", "--model", "qubit-gate", "--theta", "0",
             "--beta", "1.0471976", "--omega", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert_allclose(float(report_value(out, "T_star")), 0.5, atol=1e-6)
        assert_allclose(float(report_value(out, "A_prime")), 2.0, atol=1e-7)

    def test_dark_bell_state_is_unreachable(self, capsys):
        assert run(
            ["bound", "--model", "bell", "--state", "psi-minus", "--gamma", "1",
             "--lambda", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert report_value(out, "T_star") == "inf"

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
    def test_infinities_keep_their_sign(self, capsys):
        cli._print_report([("t_star", math.inf), ("margin", -math.inf), ("A", 0.5)], "json")
        assert json.loads(capsys.readouterr().out) == {
            "t_star": "inf", "margin": "-inf", "A": 0.5}


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

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run(["bound", "--config", str(cfg)]) == 2

    def test_missing_file_is_config_error(self, capsys):
        assert run(["bound", "--config", "/nonexistent/run.cfg"]) == 2
