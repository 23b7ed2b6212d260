"""Command-line front end.

Commands: bound, simulate, sweep-lambda, gate-map, bell-sweep, verify.
Every printed number comes straight from a library call; the CLI only
formats.  Angles accept radians or a "pi" suffix ("0.25pi").  A key=value
config file can preload any flag; explicit flags win.

Exit codes: 0 ok, 2 invalid configuration, 3 integration failure,
4 bound violation (verify only).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from . import dynamics, models, qsl, reachset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VIOLATION = 4


def parse_angle(text: str) -> float:
    """Float radians, or a multiple of pi written like '0.25pi' or 'pi'."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        if head in ("", "+", "-"):
            head += "1"
        return float(head) * math.pi
    return float(s)


def parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(",") if x.strip())


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(",") if x.strip())


def load_config(path: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; keys match flag names."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: the command plus its option values."""

    command: str
    options: dict

    def __getitem__(self, key):
        return self.options[key]


# Option tables: (dest, flag, parser, default, help).  ``None`` defaults
# mean "required".  Config-file keys equal the dest names.
_ANGLE = parse_angle
_FLOAT = float
_INT = int
_STR = str

_COMMON_OUT = [
    ("out", "--out", _STR, "-", "output path ('-' for stdout)"),
    ("format", "--format", _STR, "csv", "output format: csv or json"),
]

_OPTIONS: dict[str, list] = {
    "bound": [
        ("model", "--model", _STR, None, "qubit | qubit-gate | bell | qutrit-gate"),
        ("theta", "--theta", _ANGLE, 0.0, "initial-state angle"),
        ("phi", "--phi", _ANGLE, 0.0, "initial-state phase"),
        ("gamma", "--gamma", _FLOAT, 0.0, "decay rate"),
        ("omega", "--omega", _FLOAT, 1.0, "drive frequency"),
        ("u_max", "--u-max", _FLOAT, 1.0, "control amplitude bound"),
        ("alpha", "--alpha", _ANGLE, 0.0, "gate angle alpha"),
        ("beta", "--beta", _ANGLE, 0.0, "gate angle beta"),
        ("lam", "--lambda", _FLOAT, None, "target radius in [0, 1]"),
        ("target_theta", "--target-theta", _ANGLE, None, "target angle Theta_T"),
        ("state", "--state", _STR, "phi-plus", "Bell state label"),
        ("format", "--format", _STR, "text", "output format: text or json"),
    ],
    "simulate": [
        ("model", "--model", _STR, "qubit", "qubit | bell"),
        ("theta", "--theta", _ANGLE, 0.0, "initial-state angle"),
        ("phi", "--phi", _ANGLE, 0.0, "initial-state phase"),
        ("gamma", "--gamma", _FLOAT, 1.0, "decay rate"),
        ("omega", "--omega", _FLOAT, 1.0, "drive frequency"),
        ("state", "--state", _STR, "phi-plus", "Bell state label"),
        ("T", "--T", _FLOAT, 1.0, "final time"),
        ("dt", "--dt", _FLOAT, dynamics.DEFAULT_DT, "integration step"),
        ("out", "--out", _STR, "trajectory.csv", "trajectory output path"),
        ("format", "--format", _STR, "csv", "output format: csv or json"),
    ],
    "sweep-lambda": [
        ("gamma", "--gamma", _FLOAT, 0.0, "decay rate"),
        ("omega", "--omega", _FLOAT, 1.0, "drive frequency"),
        ("theta_min", "--theta-min", _ANGLE, 0.0, "theta axis start"),
        ("theta_max", "--theta-max", _ANGLE, math.pi / 2, "theta axis stop"),
        ("points", "--points", _INT, reachset.DEFAULT_SWEEP_POINTS, "grid points"),
        ("horizons", "--horizons", parse_float_list, reachset.DEFAULT_HORIZONS,
         "comma-separated horizons"),
        *_COMMON_OUT,
    ],
    "gate-map": [
        ("model", "--model", _STR, "qubit", "qubit | qutrit"),
        ("theta", "--theta", _ANGLE, 0.0, "initial-state angle (qubit only)"),
        ("omega", "--omega", _FLOAT, 1.0, "drive frequency"),
        ("u_max", "--u-max", _FLOAT, 1.0, "control amplitude bound"),
        ("points", "--points", _INT, reachset.DEFAULT_MAP_POINTS, "points per axis"),
        ("alpha_min", "--alpha-min", _ANGLE, 0.0, "alpha axis start"),
        ("alpha_max", "--alpha-max", _ANGLE, 2 * math.pi, "alpha axis stop"),
        ("beta_min", "--beta-min", _ANGLE, 0.0, "beta axis start"),
        ("beta_max", "--beta-max", _ANGLE, math.pi, "beta axis stop"),
        ("horizons", "--horizons", parse_float_list, reachset.DEFAULT_HORIZONS,
         "comma-separated horizons"),
        *_COMMON_OUT,
    ],
    "bell-sweep": [
        ("gamma_min", "--gamma-min", _FLOAT, 0.01, "gamma axis start (> 0)"),
        ("gamma_max", "--gamma-max", _FLOAT, 2.0, "gamma axis stop"),
        ("points", "--points", _INT, reachset.DEFAULT_SWEEP_POINTS, "grid points"),
        ("T", "--T", _FLOAT, 0.5, "horizon"),
        *_COMMON_OUT,
    ],
    "verify": [
        ("seed", "--seed", _INT, 42, "master seed"),
        ("trials", "--trials", _INT, 500, "trials per dimension"),
        ("dims", "--dims", parse_int_list, (2, 3, 4), "comma-separated dims"),
        ("T", "--T", _FLOAT, 0.5, "horizon"),
        ("dt", "--dt", _FLOAT, 1e-3, "integration step"),
        *_COMMON_OUT,
    ],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Every flag defaults to
    None and parse_args fills a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="qslreach",
        description="Quantum-speed-limit bounds and reachable sets for Markovian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key=value config file")
        for dest, flag, typ, _default, help_text in options:
            p.add_argument(flag, dest=dest, type=str, default=None, help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag values over config-file values over defaults.

    Config keys carry the flag names ("lambda = 0.5" for --lambda)."""
    table = _OPTIONS[args.command]
    file_cfg = load_config(args.config) if args.config else {}
    key_of = {dest: flag.lstrip("-").replace("-", "_") for dest, flag, *_ in table}
    known = set(key_of.values())
    for key in file_cfg:
        if key not in known:
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
    options = {}
    for dest, _flag, typ, default, _help in table:
        raw = getattr(args, dest)
        if raw is None and key_of[dest] in file_cfg:
            raw = file_cfg[key_of[dest]]
        if raw is None:
            options[dest] = default
        else:
            options[dest] = typ(raw)
    return RunConfig(command=args.command, options=options)


def _json_safe(value):
    """Infinite floats as the strings "inf" and "-inf", as ``write_rows``
    writes them."""
    if isinstance(value, float) and math.isinf(value):
        return str(value)
    return value


def _out(cfg: RunConfig):
    """The output path, or stdout for '-'."""
    return sys.stdout if cfg["out"] == "-" else cfg["out"]


def _print_report(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        payload = {k: _json_safe(v) for k, v in pairs}
        print(json.dumps(payload, indent=2))
    elif fmt == "text":
        for key, val in pairs:
            print(f"{key} = {val:.9g}" if isinstance(val, float) else f"{key} = {val}")
    else:
        raise ValueError(f"format must be 'text' or 'json', got {fmt!r}")


def _target_radius(cfg: RunConfig) -> float:
    lam, target_theta = cfg["lam"], cfg["target_theta"]
    if lam is not None and target_theta is not None:
        raise ValueError("give either --lambda or --target-theta, not both")
    if lam is None and target_theta is None:
        raise ValueError("a target is required: --lambda or --target-theta")
    if lam is not None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
        return lam
    return qsl.radius_from_angle(target_theta)


def cmd_bound(cfg: RunConfig) -> int:
    model = cfg["model"]
    if model == "qubit":
        p = models.QubitParams(
            theta=cfg["theta"], phi=cfg["phi"], gamma=cfg["gamma"], omega=cfg["omega"]
        )
        coeffs = qsl.generic_coefficients(models.qubit_spec(p))
        lam = _target_radius(cfg)
        pairs = [("model", model), ("A", coeffs.speed), ("E", coeffs.noise)]
    elif model == "qubit-gate":
        p = models.QubitParams(
            theta=cfg["theta"], omega=cfg["omega"], u_max=cfg["u_max"]
        )
        g = models.GateParams(alpha=cfg["alpha"], beta=cfg["beta"])
        coeffs = qsl.generic_coefficients(models.qubit_spec(p, with_control=True))
        fid = models.gate_fidelity(models.qubit_state(p), models.su2_gate(g))
        lam = qsl.radius_from_fidelity(fid)
        pairs = [("model", model), ("A_prime", coeffs.speed), ("E", coeffs.noise)]
    elif model == "bell":
        coeffs = models.bell_coefficients(cfg["state"], cfg["gamma"])
        lam = _target_radius(cfg)
        pairs = [("model", model), ("state", cfg["state"]),
                 ("A", coeffs.speed), ("E", coeffs.noise)]
    elif model == "qutrit-gate":
        g = models.GateParams(alpha=cfg["alpha"], beta=cfg["beta"])
        coeffs = qsl.generic_coefficients(models.qutrit_spec(cfg["omega"], cfg["u_max"]))
        lam = qsl.radius_from_fidelity(models.qutrit_gate_fidelity(g))
        pairs = [("model", model), ("A_prime", coeffs.speed), ("E", coeffs.noise)]
    else:
        raise ValueError(f"unknown bound model {model!r}")

    t_star = qsl.qsl_time(coeffs, lam)
    t_dc = qsl.del_campo_time(coeffs, lam)
    if t_star > t_dc:
        larger = "T_star"
    elif t_dc > t_star:
        larger = "T_dc"
    else:
        larger = "equal"
    pairs += [("lambda", lam), ("T_star", t_star), ("T_dc", t_dc), ("larger", larger)]
    _print_report(pairs, cfg["format"])
    return EXIT_OK


def _simulate_spec(cfg: RunConfig) -> dynamics.SystemSpec:
    model = cfg["model"]
    if model == "qubit":
        p = models.QubitParams(
            theta=cfg["theta"], phi=cfg["phi"], gamma=cfg["gamma"], omega=cfg["omega"]
        )
        return models.qubit_spec(p)
    if model == "bell":
        return models.bell_spec(cfg["state"], cfg["gamma"])
    raise ValueError(f"unknown simulate model {model!r}")


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg["format"] not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    spec = _simulate_spec(cfg)
    if cfg["T"] <= 0 or cfg["dt"] <= 0:
        raise ValueError("T and dt must be positive")
    traj = dynamics.integrate(spec, cfg["T"], cfg["dt"])
    theta_t = float(traj.thetas[-1])
    lam = reachset.measured_radius(theta_t)
    coeffs = qsl.generic_coefficients(spec)
    t_star = qsl.qsl_time(coeffs, lam)
    margin = cfg["T"] - t_star

    cols = traj.columns()
    if cfg["format"] == "json":
        rows = [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]
        payload = {
            "trajectory": rows,
            "summary": {"theta_T": theta_t, "lambda": lam,
                        "t_star": _json_safe(t_star), "margin": _json_safe(margin)},
        }
        text = json.dumps(payload, indent=2) + "\n"
        if cfg["out"] == "-":
            sys.stdout.write(text)
        else:
            with open(cfg["out"], "w", newline="\n") as fh:
                fh.write(text)
    else:
        reachset.write_rows(cols, _out(cfg), "csv")
    verdict = "bound holds" if margin >= -reachset.MARGIN_TOL else "bound violated"
    print(
        f"theta_T = {theta_t:.9g}  lambda = {lam:.9g}  T_star = {t_star:.9g}  "
        f"margin = {margin:.9g}  [{verdict}]"
    )
    return EXIT_OK


def cmd_sweep_lambda(cfg: RunConfig) -> int:
    grid = reachset.SweepGrid(
        axes=(reachset.GridAxis("theta", cfg["theta_min"], cfg["theta_max"], cfg["points"]),),
        horizons=cfg["horizons"],
    )
    cols = reachset.sweep_reachable_radius(grid, gamma=cfg["gamma"], omega=cfg["omega"])
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_gate_map(cfg: RunConfig) -> int:
    grid = reachset.SweepGrid(
        axes=(
            reachset.GridAxis("alpha", cfg["alpha_min"], cfg["alpha_max"], cfg["points"]),
            reachset.GridAxis("beta", cfg["beta_min"], cfg["beta_max"], cfg["points"]),
        ),
        horizons=cfg["horizons"],
    )
    cols = reachset.gate_reach_map(
        cfg["model"], grid, theta=cfg["theta"], omega=cfg["omega"], u_max=cfg["u_max"]
    )
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_bell_sweep(cfg: RunConfig) -> int:
    if cfg["gamma_min"] <= 0:
        raise ValueError("gamma-min must be > 0")
    axis = reachset.GridAxis("gamma", cfg["gamma_min"], cfg["gamma_max"], cfg["points"])
    cols = reachset.bell_sweep(axis, cfg["T"])
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    cols = reachset.verify_bound(
        seed=cfg["seed"], n_trials=cfg["trials"], dims=cfg["dims"],
        T=cfg["T"], dt=cfg["dt"],
    )
    rate_excess = cols.pop("rate_excess")
    reachset.write_rows(cols, _out(cfg), cfg["format"], comment=reachset.VERIFY_CSV_COMMENT)
    margin = cols["margin"]
    bad = (margin < -reachset.MARGIN_TOL).nonzero()[0]
    print(
        f"trials = {margin.size}  violations = {bad.size}  "
        f"min_margin = {margin.min():.9g}  max_rate_excess = {rate_excess.max():.3g}",
        file=sys.stderr,
    )
    for i in bad:
        print(
            f"violation: seed = {cols['seed'][i]} dim = {cols['dim'][i]} "
            f"trial = {cols['trial'][i]} margin = {margin[i]:.9g}",
            file=sys.stderr,
        )
    return EXIT_VIOLATION if bad.size else EXIT_OK


_COMMANDS = {
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "sweep-lambda": cmd_sweep_lambda,
    "gate-map": cmd_gate_map,
    "bell-sweep": cmd_bell_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[cfg.command](cfg)
    except dynamics.IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
