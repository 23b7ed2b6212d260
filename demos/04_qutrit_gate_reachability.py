"""Gate reachability for a three-level system (symmetric two-qubit space).

A qutrit driven by omega S_x with control |u| <= u_max S_z targets real
rotations G(alpha, beta) built from the 3x3 axis rotations, starting from
[1, 0, 1]/sqrt(2).  The bound here is particularly clean:

    T* = sqrt(1 - cos Theta_T) / (omega + u_max),
    cos Theta_T = (cos a cos b + cos a sin b + cos b - sin b)^2 / 4.

The hardest gates are those sending the initial state to an orthogonal
vector (cos Theta_T = 0), e.g. G(pi, 0), G(0, pi/2), G(pi, pi); the
spin-up transformation to the top level |E> = [1, 0, 0] is realized by
G(0, pi/4) and costs at least sqrt(1/2)/(omega + u_max).

Run:  python demos/04_qutrit_gate_reachability.py
Writes gate_map_qutrit.csv.
"""

import math

from qslreach import (
    GateParams,
    GridAxis,
    gate_reach_map,
    qutrit_gate_fidelity,
    qutrit_gate_time_bound,
    so3_gate,
    write_rows,
)
from qslreach.models import QUTRIT_PSI0

OMEGA = U_MAX = 1.0
HORIZONS = (0.3, 0.5, 0.8)


def main() -> None:
    print("hardest gates (send the initial state to an orthogonal vector):")
    for alpha, beta in ((math.pi, 0.0), (0.0, math.pi / 2), (math.pi, math.pi)):
        g = GateParams(alpha, beta)
        t = qutrit_gate_time_bound(OMEGA, U_MAX, g)
        print(
            f"  G({alpha / math.pi:.2f}pi, {beta / math.pi:.2f}pi): "
            f"cos Theta_T = {qutrit_gate_fidelity(g):.3f}, T* = {t:.6f}"
        )

    g_up = GateParams(0.0, math.pi / 4)
    out = so3_gate(g_up) @ QUTRIT_PSI0
    t_up = qutrit_gate_time_bound(OMEGA, U_MAX, g_up)
    print(f"\nspin-up gate G(0, pi/4) maps [1,0,1]/sqrt(2) to {out.real.round(12)}")
    print(f"its minimum implementation time is T* = {t_up:.6f}")

    alpha, beta = GridAxis(0.0, 2 * math.pi, 100), GridAxis(0.0, math.pi, 100)
    cols = gate_reach_map("qutrit", alpha, beta, HORIZONS, omega=OMEGA, u_max=U_MAX)
    for i, T in enumerate(HORIZONS, start=1):
        frac = cols[f"reach_T{i}"].mean()
        print(f"T = {T:3.1f}: {100 * frac:5.1f}% of the (alpha, beta) grid reachable")
    write_rows(cols, "gate_map_qutrit.csv", "csv")
    print("wrote gate_map_qutrit.csv")


if __name__ == "__main__":
    main()
