"""Quantum-speed-limit bounds and reachable-set analysis for Markovian open
quantum systems: master-equation simulation, explicit minimum-time bounds,
their inversion into reachable radii, and randomized validation of every
bound against the simulated dynamics."""

from .dynamics import (
    IntegrationError,
    SystemSpec,
    Trajectory,
    integrate,
    integrate_many,
    lindblad,
    master_rhs,
    theta_rate_check,
)
from .models import (
    BELL_LABELS,
    BellState,
    GateParams,
    QubitParams,
    bell_coefficients,
    bell_spec,
    bell_state,
    bell_time_bound,
    collective_decay,
    gate_fidelity,
    pauli,
    qubit_closed_form_coeffs,
    qubit_gate_radius,
    qubit_gate_time_bound,
    qubit_spec,
    qubit_state,
    qutrit_gate_fidelity,
    qutrit_gate_time_bound,
    qutrit_spec,
    qutrit_state,
    so3_gate,
    spin1,
    su2_gate,
)
from .qsl import (
    DEL_CAMPO_CROSSOVER,
    QslCoefficients,
    angle_from_radius,
    closed_system_radius_bound,
    coefficients,
    controlled_speed_coefficient,
    del_campo_time,
    generic_coefficients,
    max_reachable_radius,
    noise_coefficient,
    qsl_time,
    radius_from_angle,
    radius_from_fidelity,
    speed_coefficient,
)
from .reachset import (
    GridAxis,
    SweepGrid,
    bell_sweep,
    draw_random_system,
    gate_reach_map,
    measured_radius,
    sweep_reachable_radius,
    verify_bound,
    write_rows,
)

__version__ = "0.1.0"
