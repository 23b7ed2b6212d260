"""CLI output, byte for byte, against reference files in tests/data.

Each file was written by the CLI with the arguments listed here, so any
change to a printed digit, a column, a key or the layout fails this test.
``GOLDEN`` commands write their file through ``--out``; ``STDOUT`` commands
(``bound``) print it.
Replace a reference file only for an intended output change, and record
the change in CHANGES.md.
"""

from pathlib import Path

import pytest

from qslreach import cli, reachset

DATA = Path(__file__).parent / "data"

_SIM_BELL = ["simulate", "--model", "bell", "--state", "psi-plus", "--gamma", "0.4",
             "--T", "0.05"]

GOLDEN = {
    "verify_trials4.csv": ["verify", "--trials", "4"],
    "verify_trials4.json": ["verify", "--trials", "4", "--format", "json"],
    # at d = 8 the 40 trials are drawn and checked in five blocks
    "verify_dims1_2_5_8_trials40.json": ["verify", "--trials", "40", "--dims", "1,2,5,8",
                                         "--format", "json"],
    "simulate_T0.05.csv": ["simulate", "--T", "0.05"],
    "simulate_T0.05.json": ["simulate", "--T", "0.05", "--format", "json"],
    "simulate_bell_psi_plus_T0.05.csv": _SIM_BELL,
    "simulate_bell_psi_plus_T0.05.json": _SIM_BELL + ["--format", "json"],
    "sweep_lambda_points20.csv": ["sweep-lambda", "--points", "20"],
    "gate_map_qubit_points6.json": ["gate-map", "--points", "6", "--format", "json"],
    "gate_map_qutrit_points6.json": ["gate-map", "--model", "qutrit", "--points", "6",
                                     "--format", "json"],
    "bell_sweep_points10.csv": ["bell-sweep", "--points", "10"],
}

_QUBIT = ["bound", "--model", "qubit", "--theta", "0.3pi", "--phi", "0.2",
          "--gamma", "0.7", "--omega", "1.3", "--lambda", "0.4"]
_QUBIT_GATE = ["bound", "--model", "qubit-gate", "--theta", "0.15pi", "--omega", "1.2",
               "--u-max", "0.8", "--alpha", "0.7pi", "--beta", "0.4pi"]
_BELL = ["bound", "--model", "bell", "--state", "psi-plus", "--gamma", "0.6",
         "--target-theta", "0.3pi"]
# the dark state: A = E = 0, so both bounds print inf
_DARK = ["bound", "--model", "bell", "--state", "psi-minus", "--gamma", "1.0",
         "--lambda", "0.5"]
_QUTRIT_GATE = ["bound", "--model", "qutrit-gate", "--omega", "0.9", "--u-max", "1.4",
                "--alpha", "1.1pi", "--beta", "0.35pi"]

STDOUT = {
    f"bound_{stem}.{ext}": argv + (["--format", "json"] if ext == "json" else [])
    for stem, argv in [("qubit", _QUBIT), ("qubit_gate", _QUBIT_GATE),
                       ("bell_psi_plus", _BELL), ("bell_psi_minus", _DARK),
                       ("qutrit_gate", _QUTRIT_GATE)]
    for ext in ("txt", "json")
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_reference_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_do_not_depend_on_block_size(tmp_path, capsys, monkeypatch, name,
                                                  block_rows):
    # the writers stream their rows in blocks; 51 trajectory samples or 24
    # verify rows span many blocks of these sizes, and end mid-block for some
    monkeypatch.setattr(reachset, "_block_rows", lambda row, width: block_rows)
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT))
def test_stdout_matches_reference_bytes(capsys, name):
    assert cli.main(STDOUT[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_every_reference_file_is_checked():
    assert sorted(p.name for p in DATA.iterdir()) == sorted([*GOLDEN, *STDOUT])
