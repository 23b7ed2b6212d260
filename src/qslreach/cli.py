"""Command-line front end.

Commands: bound, simulate, sweep-lambda, gate-map, bell-sweep, verify.
Every printed number comes straight from a library call, and every data
byte is rendered by ``reachset.format_rows`` or, for one record (``bound``'s
report, ``simulate``'s JSON summary), ``reachset.format_record``.  Tables
go out in the row blocks ``format_rows`` yields; ``simulate --format json``
writes its opening, the blocks and its summary in turn.  ``bound`` and
``simulate`` build their system with one ``_spec``.  Angles accept
radians or a "pi" suffix ("0.25pi").  A key=value config file can preload
any flag; explicit flags win.  Every option is parsed before any work, so
a bad value, such as a ``--model`` or ``--format`` outside its listed
choices, exits 2 at once with an error that names its flag, and so does an
option the chosen model has no use for (``_UNUSED``) set to anything but
its default.  An angle outside its domain exits 2 naming the parameter
(not the flag) and the value typed.

Exit codes: 0 ok, 2 invalid configuration (one too large for memory
included: one "error:" line, no traceback), 3 integration failure,
4 bound violation (verify only), 141 (128 + SIGPIPE) output pipe closed by
its reader: nothing more is written, to stdout or stderr.  No signal
disposition is changed, so ``main`` can run in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from itertools import chain

from . import dynamics, models, qsl, reachset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VIOLATION = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE


def parse_angle(text: str) -> float:
    """Float radians, or a multiple of pi written like '0.25pi' or 'pi'."""
    s = str(text).strip().lower()
    if s.endswith("pi"):
        head = s[:-2].strip()
        if head in ("", "+", "-"):
            head += "1"
        return float(head) * math.pi
    return float(s)


def _list_of(typ):
    """A parser of comma-separated ``typ`` values, as a tuple."""
    return lambda text: tuple(typ(x) for x in str(text).split(",") if x.strip())


def _one_of(*values: str):
    """A parser that accepts only ``values``."""
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(f"must be one of {', '.join(map(repr, values))}, got {text!r}")
        return text
    return parse


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


# Option tables: (flag, parser, default, help).  An option's name, which is
# also its config key, is its flag without the dashes, "-" read as "_", as
# argparse names it.  A ``None`` default means unset; the command checks
# what it requires (``cmd_bound`` its --model and its target).
_OUT_ROW = ("--out", str, "-", "output path ('-' for stdout)")
_FORMAT_ROW = ("--format", _one_of("csv", "json"), "csv", "output format: csv or json")
_COMMON_OUT = [_OUT_ROW, _FORMAT_ROW]
_HORIZONS_ROW = ("--horizons", _list_of(float), (0.3, 0.5, 0.8), "comma-separated horizons")

_OPTIONS: dict[str, list] = {
    "bound": [
        ("--model", _one_of("qubit", "qubit-gate", "bell", "qutrit-gate"),
         None, "qubit | qubit-gate | bell | qutrit-gate"),
        ("--theta", parse_angle, 0.0, "initial-state angle"),
        ("--phi", parse_angle, 0.0, "initial-state phase"),
        ("--gamma", float, 0.0, "decay rate"),
        ("--omega", float, 1.0, "drive frequency"),
        ("--u-max", float, 1.0, "control amplitude bound"),
        ("--alpha", parse_angle, 0.0, "gate angle alpha"),
        ("--beta", parse_angle, 0.0, "gate angle beta"),
        ("--lambda", float, None, "target radius in [0, 1]"),
        ("--target-theta", parse_angle, None, "target angle Theta_T"),
        ("--state", _one_of(*models.BELL_LABELS), "phi-plus", "Bell state label"),
        ("--format", _one_of("text", "json"), "text", "output format: text or json"),
    ],
    "simulate": [
        ("--model", _one_of("qubit", "bell"), "qubit", "qubit | bell"),
        ("--theta", parse_angle, 0.0, "initial-state angle"),
        ("--phi", parse_angle, 0.0, "initial-state phase"),
        ("--gamma", float, 1.0, "decay rate"),
        ("--omega", float, 1.0, "drive frequency"),
        ("--state", _one_of(*models.BELL_LABELS), "phi-plus", "Bell state label"),
        ("--T", float, 1.0, "final time"),
        ("--dt", float, dynamics.DEFAULT_DT, "integration step"),
        ("--out", str, "trajectory.csv", "trajectory output path"),
        _FORMAT_ROW,
    ],
    "sweep-lambda": [
        ("--gamma", float, 0.0, "decay rate"),
        ("--omega", float, 1.0, "drive frequency"),
        ("--theta-min", parse_angle, 0.0, "theta axis start"),
        ("--theta-max", parse_angle, math.pi / 2, "theta axis stop"),
        ("--points", int, 200, "grid points"),
        _HORIZONS_ROW,
        *_COMMON_OUT,
    ],
    "gate-map": [
        ("--model", _one_of("qubit", "qutrit"), "qubit", "qubit | qutrit"),
        ("--theta", parse_angle, 0.0, "initial-state angle (qubit only)"),
        ("--omega", float, 1.0, "drive frequency"),
        ("--u-max", float, 1.0, "control amplitude bound"),
        ("--points", int, 100, "points per axis"),
        ("--alpha-min", parse_angle, 0.0, "alpha axis start"),
        ("--alpha-max", parse_angle, 2 * math.pi, "alpha axis stop"),
        ("--beta-min", parse_angle, 0.0, "beta axis start"),
        ("--beta-max", parse_angle, math.pi, "beta axis stop"),
        _HORIZONS_ROW,
        *_COMMON_OUT,
    ],
    "bell-sweep": [
        ("--gamma-min", float, 0.01, "gamma axis start (> 0)"),
        ("--gamma-max", float, 2.0, "gamma axis stop"),
        ("--points", int, 200, "grid points"),
        ("--T", float, 0.5, "horizon"),
        *_COMMON_OUT,
    ],
    "verify": [
        ("--seed", int, 42, "master seed"),
        ("--trials", int, 500, "trials per dimension"),
        ("--dims", _list_of(int), (2, 3, 4), "comma-separated dims"),
        ("--T", float, 0.5, "horizon"),
        ("--dt", float, dynamics.DEFAULT_DT, "integration step"),
        *_COMMON_OUT,
    ],
}


#: The options each model of a command has no use for, by name.  Set
#: to anything but its default, by a flag or a config file, one is an error.
_UNUSED: dict[tuple[str, str], tuple[str, ...]] = {
    ("bound", "qubit"): ("u_max", "alpha", "beta", "state"),
    ("bound", "qubit-gate"): ("gamma", "lambda", "target_theta", "state"),
    ("bound", "bell"): ("theta", "phi", "omega", "u_max", "alpha", "beta"),
    ("bound", "qutrit-gate"): ("theta", "phi", "gamma", "lambda", "target_theta", "state"),
    ("simulate", "qubit"): ("state",),
    ("simulate", "bell"): ("theta", "phi", "omega"),
    ("gate-map", "qutrit"): ("theta",),
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
        p.add_argument("--config", help="key=value config file")
        for flag, _parse, _default, help_text in options:
            p.add_argument(flag, help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """The options of ``args.command`` by name: flag values over config-file
    values over defaults.

    Config keys are the option names ("lambda = 0.5" for --lambda)."""
    rows = {flag.lstrip("-").replace("-", "_"): (flag, parse, default)
            for flag, parse, default, _help in _OPTIONS[args.command]}
    file_cfg = load_config(args.config) if args.config else {}
    for key in file_cfg:
        if key not in rows:
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
    options = {}
    for name, (flag, parse, default) in rows.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_cfg.get(name)
        try:
            options[name] = default if raw is None else parse(raw)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    unused = _UNUSED.get((args.command, options.get("model")), ())
    for name, (flag, _parse, default) in rows.items():
        if name in unused and options[name] != default:
            raise ValueError(f"{flag} does not apply to --model {options['model']}")
    return options


def _out(cfg: dict):
    """The output path, or stdout for '-'."""
    return sys.stdout if cfg["out"] == "-" else cfg["out"]


def _axis(cfg: dict, name: str) -> reachset.GridAxis:
    """The ``name`` axis of a sweep config; its errors name the flags."""
    try:
        return reachset.GridAxis(cfg[f"{name}_min"], cfg[f"{name}_max"], cfg["points"])
    except ValueError as exc:
        raise ValueError(f"--{name}-min/--{name}-max/--points: {exc}") from None


def _target_radius(cfg: dict) -> float:
    lam, target_theta = cfg["lambda"], cfg["target_theta"]
    if lam is not None and target_theta is not None:
        raise ValueError("give either --lambda or --target-theta, not both")
    if lam is None and target_theta is None:
        raise ValueError("a target is required: --lambda or --target-theta")
    if lam is not None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"--lambda must lie in [0, 1], got {lam!r}")
        return lam
    if not 0.0 <= target_theta <= math.pi / 2 + 1e-12:
        raise ValueError(f"--target-theta must lie in [0, pi/2], got {target_theta!r}")
    return qsl.radius_from_fidelity(math.cos(target_theta))


def _spec(cfg: dict) -> dynamics.SystemSpec:
    """The system of a ``bound`` or ``simulate`` config's model."""
    model = cfg["model"]
    if model == "bell":
        return models.bell_spec(cfg["state"], cfg["gamma"])
    if model == "qutrit-gate":
        return models.qutrit_spec(cfg["omega"], cfg["u_max"])
    state = {"theta": cfg["theta"], "phi": cfg["phi"], "omega": cfg["omega"]}
    if model == "qubit-gate":
        p = models.QubitParams(**state, u_max=cfg["u_max"])
        return models.qubit_spec(p, with_control=True)
    return models.qubit_spec(models.QubitParams(**state, gamma=cfg["gamma"]))


def cmd_bound(cfg: dict) -> int:
    model = cfg["model"]
    if model is None:
        raise ValueError("a model is required: --model")
    spec = _spec(cfg)
    coeffs = qsl.generic_coefficients(spec)
    if model.endswith("-gate"):  # a closed system, and the gate sets lambda
        g = models.GateParams(alpha=cfg["alpha"], beta=cfg["beta"])
        fid = (models.gate_fidelity(spec.psi0, models.su2_gate(g)) if model == "qubit-gate"
               else models.qutrit_gate_fidelity(g))
        lam = qsl.radius_from_fidelity(fid)
    else:
        lam = _target_radius(cfg)
    pairs = [("model", model)] + ([("state", cfg["state"])] if model == "bell" else [])
    pairs += [("A_prime" if spec.has_control else "A", coeffs.speed), ("E", coeffs.noise)]

    t_star = qsl.qsl_time(coeffs, lam)
    t_dc = qsl.del_campo_time(coeffs, lam)
    larger = "T_star" if t_star > t_dc else "T_dc" if t_dc > t_star else "equal"
    pairs += [("lambda", lam), ("T_star", t_star), ("T_dc", t_dc), ("larger", larger)]
    print(reachset.format_record(dict(pairs), cfg["format"]))
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    traj, summary = reachset.check_bound(_spec(cfg), cfg["T"], cfg["dt"])
    rate_excess = summary.pop("rate_excess")
    cols = traj.columns()
    if cfg["format"] == "json":
        # one indent=2 JSON document: {"trajectory": rows, "summary": record},
        # the rows written block by block
        tail = ',\n  "summary": ' + reachset.format_record(summary, "json", "  ") + "\n}\n"
        reachset.write_text(chain(['{\n  "trajectory": '],
                                  reachset.format_rows(cols, "json", "  "), [tail]), _out(cfg))
    else:
        reachset.write_rows(cols, _out(cfg), "csv")
    margin = summary["margin"]
    verdict = "bound violated" if reachset.violated(margin) else "bound holds"
    # with the data on stdout, the summary goes to stderr, as verify's does
    print(
        f"theta_T = {summary['theta_T']:.9g}  lambda = {summary['lambda']:.9g}  "
        f"T_star = {summary['t_star']:.9g}  margin = {margin:.9g}  "
        f"max_rate_excess = {rate_excess + 0.0:.3g}  [{verdict}]",
        file=sys.stderr if cfg["out"] == "-" else sys.stdout,
    )
    return EXIT_OK


def cmd_sweep_lambda(cfg: dict) -> int:
    cols = reachset.sweep_reachable_radius(
        _axis(cfg, "theta"), cfg["horizons"], gamma=cfg["gamma"], omega=cfg["omega"]
    )
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_gate_map(cfg: dict) -> int:
    cols = reachset.gate_reach_map(
        cfg["model"], _axis(cfg, "alpha"), _axis(cfg, "beta"), cfg["horizons"],
        theta=cfg["theta"], omega=cfg["omega"], u_max=cfg["u_max"],
    )
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_bell_sweep(cfg: dict) -> int:
    if cfg["gamma_min"] <= 0:
        raise ValueError(f"--gamma-min must be > 0, got {cfg['gamma_min']!r}")
    cols = reachset.bell_sweep(_axis(cfg, "gamma"), cfg["T"])
    reachset.write_rows(cols, _out(cfg), cfg["format"])
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    cols = reachset.verify_bound(
        seed=cfg["seed"], n_trials=cfg["trials"], dims=cfg["dims"],
        T=cfg["T"], dt=cfg["dt"],
    )
    rate_excess = cols.pop("rate_excess")
    reachset.write_rows(cols, _out(cfg), cfg["format"], comment=reachset.VERIFY_CSV_COMMENT)
    margin = cols["margin"]
    bad = reachset.violated(margin).nonzero()[0]
    print(
        f"trials = {margin.size}  violations = {bad.size}  "
        f"min_margin = {margin.min():.9g}  max_rate_excess = {rate_excess.max() + 0.0:.3g}",
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
        code = _COMMANDS[args.command](resolve_config(args))
        sys.stdout.flush()  # a reader gone before the last buffered bytes fails here
        return code
    except BrokenPipeError:
        # the reader went away: say nothing (stderr may be the same pipe), and
        # point a stdout that has a descriptor at devnull, so that the
        # interpreter's final flush of what is still buffered stays quiet
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_BROKEN_PIPE
    except dynamics.IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a config too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
