"""Quantum-speed-limit bounds and reachable-set analysis for Markovian open
quantum systems: master-equation simulation, explicit minimum-time bounds,
their inversion into reachable radii, and randomized validation of every
bound against the simulated dynamics."""

from .dynamics import (
    IntegrationError,
    SystemSpec,
    Trajectory,
    integrate,
    lindblad,
    theta_rate_check,
)
from .models import (
    BELL_LABELS,
    GateParams,
    QubitParams,
    bell_spec,
    bell_state,
    collective_decay,
    gate_fidelity,
    qubit_gate_fidelity,
    qubit_gate_time_bound,
    qubit_spec,
    qubit_state,
    qutrit_gate_fidelity,
    qutrit_gate_time_bound,
    qutrit_spec,
    so3_gate,
    su2_gate,
)
from .qsl import (
    QslCoefficients,
    del_campo_time,
    generic_coefficients,
    max_reachable_radius,
    qsl_time,
    radius_from_fidelity,
)
from .reachset import (
    GridAxis,
    bell_sweep,
    check_bound,
    draw_random_system,
    gate_reach_map,
    sweep_reachable_radius,
    verify_bound,
    write_rows,
)

__version__ = "0.1.0"
