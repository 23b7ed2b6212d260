"""Span recording around the public functions of the qslreach modules.

The tracer replaces each traced function by a wrapper in every module
namespace where a caller looks the name up: ``reachset`` imports
``integrate`` and ``theta_rate_check`` by name, ``qsl.max_reachable_radius``
calls ``qsl_time`` through the ``qsl`` globals, and ``dynamics.integrate``
calls ``_check_states`` through the ``dynamics`` globals.  Nothing under
``src/`` is edited; ``uninstall`` restores every patched name.

A span holds a name, start, end, parent span and the id of the command
that produced it.  Spans are kept in compact arrays in memory and written
out once, by ``save``, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "reachset", "dynamics", "qsl", "models", "linalg")

#: Private functions traced under a public span name.
RENAMED = {("dynamics", "_check_states"): "dynamics.health_check"}

#: In ``cli`` only ``main`` is wrapped: the command functions are reached
#: through dispatch and option tables, so main's self time is argument
#: parsing, config resolution and JSON encoding.
CLI_TRACED = ("main",)


class Tracer:
    """Records spans and layer counters for the commands run while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.cmd = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.cmd_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, span: str, fn, after=None):
        nid = len(self.names)
        self.names.append(span)
        name, parent, cmd = self.name, self.parent, self.cmd
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            cmd.append(self.cmd_id)
            stack.append(idx)
            end.append(0.0)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _after_integrate(self, traj) -> None:
        self._add("dynamics.integrate.steps", len(traj.times) - 1)
        mb = traj.states.nbytes / 1e6
        key = "dynamics.integrate.states_mb"
        self.counters[key] = max(self.counters.get(key, 0.0), mb)

    def _after_rate_check(self, samples) -> None:
        self._add("dynamics.theta_rate_check.samples", len(samples))

    def _count_bytes(self, span: str, traced):
        """Count what a writer adds to its path or open stream."""

        @functools.wraps(traced)
        def counted(data, path):
            stream = hasattr(path, "tell")
            start = path.tell() if stream else 0
            traced(data, path)
            end = path.tell() if stream else os.path.getsize(path)
            self._add(span + ".bytes", end - start)

        return counted

    # -- installation --------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of ``modules`` (layer name -> module)."""
        targets = []
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                span = RENAMED.get((layer, attr))
                if span is None:
                    if attr.startswith("_"):
                        continue
                    if layer == "cli" and attr not in CLI_TRACED:
                        continue
                    span = f"{layer}.{attr}"
                targets.append((span, obj))
        for span, fn in targets:
            if span == "dynamics.integrate":
                wrapper = self._wrap(span, fn, self._after_integrate)
            elif span == "dynamics.theta_rate_check":
                wrapper = self._wrap(span, fn, self._after_rate_check)
            elif span in ("dynamics.write_trajectory_csv", "reachset.write_rows_csv"):
                wrapper = self._count_bytes(span, self._wrap(span, fn))
            else:
                wrapper = self._wrap(span, fn)
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cmd": np.frombuffer(self.cmd, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures derived from the recorded spans.

    Totals (``busy_s``, ``self_s``, ``calls`` and counts) are per traced
    pass.  ``busy_s`` sums a function's span durations and ``self_s``
    subtracts the durations of its child spans.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    n_names = len(tracer.names)
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    busy = np.bincount(a["name"], weights=dur, minlength=n_names)
    selfs = np.bincount(a["name"], weights=dur - child, minlength=n_names)
    calls = np.bincount(a["name"], minlength=n_names).astype(float)
    ids = {n: i for i, n in enumerate(tracer.names)}
    table = {"busy_s": busy, "self_s": selfs, "calls": calls}

    def total(span: str, kind: str) -> float:
        i = ids.get(span)
        return float(table[kind][i]) if i is not None else 0.0

    def pct_us(span: str, q: float) -> float:
        i = ids.get(span)
        d = dur[a["name"] == i] if i is not None else dur[:0]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    count = tracer.counters.get
    integ, inv = "dynamics.integrate", "qsl.max_reachable_radius"
    linalg = [i for n, i in ids.items() if n.startswith("linalg.")]
    totals = {
        f"{integ}.busy_s": total(integ, "busy_s"),
        f"{integ}.calls": total(integ, "calls"),
        f"{integ}.steps": count(f"{integ}.steps", 0.0),
        f"{integ}.loop_s": total(integ, "busy_s") - total("dynamics.health_check", "busy_s"),
        "dynamics.health_check.busy_s": total("dynamics.health_check", "busy_s"),
        "dynamics.theta_rate_check.busy_s": total("dynamics.theta_rate_check", "busy_s"),
        "dynamics.theta_rate_check.samples": count("dynamics.theta_rate_check.samples", 0.0),
        "dynamics.write_trajectory_csv.busy_s": total("dynamics.write_trajectory_csv", "busy_s"),
        "dynamics.write_trajectory_csv.bytes": count("dynamics.write_trajectory_csv.bytes", 0.0),
        "reachset.draw_random_system.busy_s": total("reachset.draw_random_system", "busy_s"),
        "qsl.generic_coefficients.busy_s": total("qsl.generic_coefficients", "busy_s"),
        "qsl.generic_coefficients.calls": total("qsl.generic_coefficients", "calls"),
        f"{inv}.busy_s": total(inv, "busy_s"),
        f"{inv}.calls": total(inv, "calls"),
        "models.qubit_gate_time_bound.busy_s": total("models.qubit_gate_time_bound", "busy_s"),
        "models.qutrit_gate_time_bound.busy_s": total("models.qutrit_gate_time_bound", "busy_s"),
        "models.bell_coefficients.busy_s": total("models.bell_coefficients", "busy_s"),
        "reachset.sweep_reachable_radius.self_s": total("reachset.sweep_reachable_radius", "self_s"),
        "reachset.gate_reach_map.self_s": total("reachset.gate_reach_map", "self_s"),
        "reachset.bell_sweep.self_s": total("reachset.bell_sweep", "self_s"),
        "reachset.write_rows_csv.busy_s": total("reachset.write_rows_csv", "busy_s"),
        "reachset.write_rows_csv.bytes": count("reachset.write_rows_csv.bytes", 0.0),
        "reachset.write_verify_csv.busy_s": total("reachset.write_verify_csv", "busy_s"),
        "cli.main.busy_s": total("cli.main", "busy_s"),
        "cli.main.self_s": total("cli.main", "self_s"),
        "linalg.calls": float(calls[linalg].sum()),
        "linalg.busy_s": float(busy[linalg].sum()),
    }
    m = {k: v / passes for k, v in totals.items()}
    steps = totals[f"{integ}.steps"]
    m[f"{integ}.step_us"] = totals[f"{integ}.busy_s"] / steps * 1e6 if steps else 0.0
    m[f"{integ}.p50_us"] = pct_us(integ, 50)
    m[f"{integ}.p99_us"] = pct_us(integ, 99)
    m[f"{integ}.states_mb"] = count(f"{integ}.states_mb", 0.0)
    m[f"{inv}.p50_us"] = pct_us(inv, 50)
    m[f"{inv}.p99_us"] = pct_us(inv, 99)
    m[f"{inv}.iters"] = 0.0
    if totals[f"{inv}.calls"] and "qsl.qsl_time" in ids:
        parent_name = np.full(dur.size, -1)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]
        inner = (parent_name == ids[inv]) & (a["name"] == ids["qsl.qsl_time"])
        m[f"{inv}.iters"] = np.count_nonzero(inner) / totals[f"{inv}.calls"]
    return m
