"""CLI output, byte for byte, against reference files in tests/data.

Each file was written by the CLI with the arguments listed here, so any
change to a printed digit, a column, a key or the layout fails this test.
Replace a reference file only for an intended output change, and record
the change in CHANGES.md.
"""

from pathlib import Path

import pytest

from qslreach import cli

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "verify_trials4.csv": ["verify", "--trials", "4"],
    "verify_trials4.json": ["verify", "--trials", "4", "--format", "json"],
    "simulate_T0.05.csv": ["simulate", "--T", "0.05"],
    "simulate_T0.05.json": ["simulate", "--T", "0.05", "--format", "json"],
    "sweep_lambda_points20.csv": ["sweep-lambda", "--points", "20"],
    "gate_map_qubit_points6.json": ["gate-map", "--points", "6", "--format", "json"],
    "gate_map_qutrit_points6.json": ["gate-map", "--model", "qutrit", "--points", "6",
                                     "--format", "json"],
    "bell_sweep_points10.csv": ["bell-sweep", "--points", "10"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_reference_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_every_reference_file_is_checked():
    assert sorted(p.name for p in DATA.iterdir()) == sorted(GOLDEN)
