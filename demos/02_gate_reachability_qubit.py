"""Which single-qubit rotations are implementable in time T?

With drift omega sigma_x and a bounded control |u| <= u_max sigma_z, every
target rotation G(alpha, beta) = Rz(alpha) Ry(beta) is eventually
implementable -- but not arbitrarily fast.  The gate bound

    T* = sqrt(1 - fidelity(G)) / (omega |cos 2 theta| + u_max |sin 2 theta|)

is a necessary condition: a gate with T* > T is out of reach at horizon T,
no matter how clever the control waveform.

Highlights reproduced here (omega = u_max = 1):

* from |0> (theta = 0) the bound depends on beta alone, T* = |sin(beta/2)|;
  at T = 0.5 the frontier sits exactly at beta = pi/3, where the target
  leaves fidelity 0.75 with the initial state;
* from the equator state |+> (theta = pi/4) the roles reverse: G(0, pi)
  (a y-flip) and G(pi, 0) (a z-flip) map |+> to orthogonal states and
  remain unreachable even at T = 0.8.

Run:  python demos/02_gate_reachability_qubit.py
Writes gate_map_theta0.csv and gate_map_theta_pi4.csv.
"""

import math

from qslreach import (
    GateParams,
    GridAxis,
    QubitParams,
    gate_reach_map,
    qubit_gate_time_bound,
    write_rows,
)

HORIZONS = (0.3, 0.5, 0.8)


def reach_fraction(cols, horizon_index: int) -> float:
    return cols[f"reach_T{horizon_index + 1}"].mean()


def main() -> None:
    alpha, beta = GridAxis(0.0, 2 * math.pi, 100), GridAxis(0.0, math.pi, 100)

    print("--- initial state |0> (theta = 0) ---")
    cols = gate_reach_map("qubit", alpha, beta, HORIZONS, theta=0.0)
    for i, T in enumerate(HORIZONS):
        print(f"T = {T:3.1f}: {100 * reach_fraction(cols, i):5.1f}% of gates reachable")
    p0 = QubitParams(theta=0.0, omega=1.0, u_max=1.0)
    t_frontier = qubit_gate_time_bound(p0, GateParams(0.0, math.pi / 3))
    print(f"frontier at T = 0.5: beta = pi/3 gives T* = {t_frontier:.6f}")
    write_rows(cols, "gate_map_theta0.csv", "csv")
    print("wrote gate_map_theta0.csv")

    print("\n--- initial state |+> (theta = pi/4) ---")
    cols = gate_reach_map("qubit", alpha, beta, HORIZONS, theta=math.pi / 4)
    for i, T in enumerate(HORIZONS):
        print(f"T = {T:3.1f}: {100 * reach_fraction(cols, i):5.1f}% of gates reachable")
    p = QubitParams(theta=math.pi / 4, omega=1.0, u_max=1.0)
    for alpha, beta, what in (
        (0.0, math.pi, "y-flip G(0, pi)"),
        (math.pi, 0.0, "z-flip G(pi, 0)"),
        (math.pi, math.pi, "x-flip G(pi, pi), |+> is its eigenstate"),
    ):
        t = qubit_gate_time_bound(p, GateParams(alpha, beta))
        print(f"{what}: T* = {t:.6f}")
    write_rows(cols, "gate_map_theta_pi4.csv", "csv")
    print("wrote gate_map_theta_pi4.csv")


if __name__ == "__main__":
    main()
