"""Tracing for the benchmark's traced run, kept entirely outside the program.

The tracer wraps the program's public functions at the names the CLI and the
modules call them by (``driftstop.cli.solve_value``,
``driftstop.montecarlo.posterior_mean_var``, ...).  Each call becomes a span
(name, start, end, parent, run id, attributes) held in memory; the per-layer
metrics are computed from the spans when the run ends.

A hook whose target no longer exists, whose attribute reader no longer fits
the target's result, or that a workload expects but never reaches, makes the
metrics that depend on it *missing*.  They are left out of the result rather
than reported as zero.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run: str
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Hook(NamedTuple):
    id: str
    owner: str  # module path, optionally followed by ":Class"
    attr: str
    span: str
    attrs: Callable | None  # (args, kwargs, result) -> dict


def _kernel_attrs(caller: str) -> Callable:
    def attrs(args, kwargs, result):
        table = args[0]
        y = args[2] if len(args) > 2 else kwargs["y"]
        columns = int(np.size(y))
        return {"caller": caller, "columns": columns, "node_columns": table.n * columns}

    return attrs


def _grid_attrs(args, kwargs, result):
    return {"rows": int(result.t_nodes.size), "clamped": int(result.meta["clamped_points"])}


def _solve_attrs(args, kwargs, result):
    return {
        "lcp_iterations": int(result.meta["total_step_iterations"]),
        "max_step_iterations": int(result.meta["max_step_iterations"]),
        "rows": int(args[0].t_nodes.size),  # the Psi grid covers every solved row, burn-in included
    }


def _evaluate_attrs(args, kwargs, result):
    c, sim = float(args[1]), args[3]
    mean_tau = result.components[1] / c
    return {
        "live": int(round(result.n_paths * (mean_tau / sim.dt + 1.0))),
        "cap_fraction": float(result.cap_fraction),
    }


def _written_bytes(path_index: int) -> Callable:
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}

    return attrs


HOOKS = (
    Hook("prior.quadrature", "driftstop.cli", "build_quadrature", "prior.quadrature", None),
    Hook("prior.kernel.dispersion", "driftstop.dispersion", "posterior_mean_var", "prior.kernel", _kernel_attrs("dispersion")),
    Hook("prior.kernel.montecarlo", "driftstop.montecarlo", "posterior_mean_var", "prior.kernel", _kernel_attrs("montecarlo")),
    Hook("dispersion.horizon_scan", "driftstop.cli", "psi_grid", "dispersion.horizon_scan", _grid_attrs),
    Hook("dispersion.psi_grid", "driftstop.cli", "solver_psi_grid", "dispersion.psi_grid", _grid_attrs),
    Hook("stopping_solver.solve", "driftstop.cli", "solve_value", "stopping_solver.solve", _solve_attrs),
    Hook("stopping_solver.extract", "driftstop.cli", "extract_regions", "stopping_solver.extract", None),
    Hook("stopping_solver.monotonicity", "driftstop.cli", "monotonicity_report", "stopping_solver.checks", None),
    Hook("stopping_solver.locally_good", "driftstop.cli", "locally_good_check", "stopping_solver.checks", None),
    Hook("montecarlo.evaluate", "driftstop.cli", "evaluate_policy", "montecarlo.evaluate", _evaluate_attrs),
    Hook("montecarlo.identity", "driftstop.cli", "verify_variance_identity", "montecarlo.identity", None),
    Hook("montecarlo.gap", "driftstop.cli", "policy_optimality_gap", "montecarlo.gap", None),
    Hook("cli.write.value_grid", "driftstop.stopping_solver:ValueGrid", "to_csv", "cli.write", _written_bytes(1)),
    Hook("cli.write.boundary", "driftstop.stopping_solver:BoundaryCurve", "to_csv", "cli.write", _written_bytes(1)),
    Hook("cli.write.json", "driftstop.cli", "_write_json", "cli.write", _written_bytes(0)),
)


def _resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class Tracer:
    """Spans of one run, in memory; install() patches the hooks, uninstall() restores them."""

    run: str
    spans: list = field(default_factory=list)
    reached: set = field(default_factory=set)
    broken: dict = field(default_factory=dict)  # hook id -> reason
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append((sid, name, time.perf_counter()))
        return sid

    def close(self, sid: int, attrs: dict | None = None) -> None:
        end = time.perf_counter()
        top, name, start = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[sid] = Span(sid, name, start, end, parent, self.run, attrs or {})

    def _wrap(self, hook: Hook, target: Callable) -> Callable:
        def traced(*args, **kwargs):
            sid = self.open(hook.span)
            attrs = {}
            try:
                result = target(*args, **kwargs)
                self.reached.add(hook.id)
                if hook.attrs is not None:
                    try:
                        attrs = hook.attrs(args, kwargs, result)
                    except (AttributeError, KeyError, IndexError, TypeError, OSError) as exc:
                        self.broken[hook.id] = f"attribute reader failed: {exc!r}"
                return result
            finally:
                self.close(sid, attrs)

        traced.__wrapped__ = target
        return traced

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            try:
                owner = _resolve_owner(hook.owner)
            except (ImportError, AttributeError) as exc:
                self.broken[hook.id] = f"owner {hook.owner} not found: {exc!r}"
                continue
            target = owner.__dict__.get(hook.attr)
            if not callable(target):
                self.broken[hook.id] = f"{hook.owner}.{hook.attr} no longer exists"
                continue
            self._patched.append((owner, hook.attr, target))
            setattr(owner, hook.attr, self._wrap(hook, target))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, target = self._patched.pop()
            setattr(owner, attr, target)

    def missing(self, expected) -> dict:
        """Hook id -> reason, for every hook whose numbers cannot be trusted in this run."""
        out = dict(self.broken)
        for hook_id in expected:
            if hook_id not in self.reached and hook_id not in out:
                out[hook_id] = "never reached, although the workload runs this layer"
        return out

    def to_json(self) -> list:
        return [list(s) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - child[s.id] for s in spans]


class Metric(NamedTuple):
    name: str
    unit: str
    hooks: tuple  # hook ids the value is computed from
    value: Callable  # (Stats) -> float, or None when undefined


class Stats:
    """Sums over the spans of one traced run, by span name."""

    def __init__(self, spans: list[Span]):
        selfs = self_times(spans)
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.attr_sum: dict[tuple, float] = {}
        self.attr_max: dict[tuple, float] = {}
        for s, st in zip(spans, selfs):
            key = s.name + (f".{s.attrs['caller']}" if "caller" in s.attrs else "")
            self.time[key] = self.time.get(key, 0.0) + s.duration
            self.self_time[key] = self.self_time.get(key, 0.0) + st
            self.calls[key] = self.calls.get(key, 0) + 1
            for a, v in s.attrs.items():
                if isinstance(v, (int, float)):
                    self.attr_sum[key, a] = self.attr_sum.get((key, a), 0) + v
                    self.attr_max[key, a] = max(self.attr_max.get((key, a), v), v)
        # kernel columns filtered while evaluate_policy runs, whatever the nesting
        by_id = {s.id: s for s in spans}
        self.evaluate_columns = 0
        for s in spans:
            if s.name == "prior.kernel" and s.attrs.get("caller") == "montecarlo":
                p = s.parent
                while p >= 0 and by_id[p].name != "montecarlo.evaluate":
                    p = by_id[p].parent
                if p >= 0:
                    self.evaluate_columns += s.attrs["columns"]

    def t(self, key):
        return self.time.get(key, 0.0)

    def selft(self, *keys):
        return sum(self.self_time.get(k, 0.0) for k in keys)

    def n(self, key):
        return self.calls.get(key, 0)

    def sum(self, key, attr):
        return self.attr_sum.get((key, attr), 0)


def _ratio(num, den):
    return None if den == 0 else num / den


_KD, _KM = "prior.kernel.dispersion", "prior.kernel.montecarlo"
_GRIDS = ("dispersion.horizon_scan", "dispersion.psi_grid")
_SOLVER = ("stopping_solver.solve",)
_CHECKS = ("stopping_solver.monotonicity", "stopping_solver.locally_good")
_MC = ("montecarlo.evaluate", "montecarlo.identity", "montecarlo.gap")
_WRITERS = ("cli.write.value_grid", "cli.write.boundary", "cli.write.json")
# a self time is only right when every child span it subtracts was recorded
_CLI_CHILDREN = tuple(h.id for h in HOOKS if not h.id.startswith("prior.kernel"))

# Reported in the benchmark result, in this order; BENCHMARK.json lists the same names.
PER_LAYER = (
    Metric("prior.quadrature_s", "s", ("prior.quadrature",), lambda s: s.t("prior.quadrature")),
    Metric("prior.kernel_calls.dispersion", "count", (_KD,), lambda s: s.n(_KD)),
    Metric("prior.kernel_calls.montecarlo", "count", (_KM,), lambda s: s.n(_KM)),
    Metric("prior.kernel_columns.dispersion", "count", (_KD,), lambda s: s.sum(_KD, "columns")),
    Metric("prior.kernel_columns.montecarlo", "count", (_KM,), lambda s: s.sum(_KM, "columns")),
    Metric(
        "prior.kernel_node_columns", "count", (_KD, _KM),
        lambda s: s.sum(_KD, "node_columns") + s.sum(_KM, "node_columns"),
    ),
    Metric("prior.kernel_s.dispersion", "s", (_KD,), lambda s: s.t(_KD)),
    Metric("prior.kernel_s.montecarlo", "s", (_KM,), lambda s: s.t(_KM)),
    Metric("dispersion.psi_grid_s", "s", ("dispersion.psi_grid",), lambda s: s.t("dispersion.psi_grid")),
    Metric("dispersion.horizon_scan_s", "s", ("dispersion.horizon_scan",), lambda s: s.t("dispersion.horizon_scan")),
    Metric(
        "dispersion.kernel_calls_per_row", "calls/row", (_KD,) + _GRIDS,
        lambda s: _ratio(s.n(_KD), sum(s.sum(g, "rows") for g in _GRIDS)),
    ),
    Metric("dispersion.self_s", "s", _GRIDS + (_KD,), lambda s: s.selft(*_GRIDS)),
    Metric("dispersion.clamped_points", "count", _GRIDS, lambda s: sum(s.sum(g, "clamped") for g in _GRIDS)),
    Metric("stopping_solver.solve_s", "s", _SOLVER, lambda s: s.t("stopping_solver.solve")),
    Metric("stopping_solver.lcp_iterations", "count", _SOLVER, lambda s: s.sum("stopping_solver.solve", "lcp_iterations")),
    Metric(
        "stopping_solver.max_step_iterations", "count", _SOLVER,
        lambda s: s.attr_max.get(("stopping_solver.solve", "max_step_iterations"), 0),
    ),
    Metric("stopping_solver.time_steps", "count", _SOLVER, lambda s: s.sum("stopping_solver.solve", "rows")),
    Metric("stopping_solver.extract_s", "s", ("stopping_solver.extract",), lambda s: s.t("stopping_solver.extract")),
    Metric("stopping_solver.checks_s", "s", _CHECKS, lambda s: s.t("stopping_solver.checks")),
    Metric("montecarlo.evaluate_s", "s", ("montecarlo.evaluate",), lambda s: s.t("montecarlo.evaluate")),
    Metric("montecarlo.identity_s", "s", ("montecarlo.identity",), lambda s: s.t("montecarlo.identity")),
    Metric("montecarlo.gap_s", "s", ("montecarlo.gap",), lambda s: s.t("montecarlo.gap")),
    Metric("montecarlo.path_steps_filtered", "count", ("montecarlo.evaluate", _KM), lambda s: s.evaluate_columns),
    Metric("montecarlo.path_steps_live", "count", ("montecarlo.evaluate",), lambda s: s.sum("montecarlo.evaluate", "live")),
    Metric("montecarlo.self_s", "s", _MC + (_KM,), lambda s: s.selft("montecarlo.evaluate", "montecarlo.identity", "montecarlo.gap")),
    Metric("cli.write_s", "s", _WRITERS, lambda s: s.t("cli.write")),
    Metric("cli.bytes_written", "bytes", _WRITERS, lambda s: s.sum("cli.write", "bytes")),
    Metric("cli.self_s", "s", _CLI_CHILDREN, lambda s: s.selft("cli.solve", "cli.verify")),
)

# Ratios that are undefined on a workload that skips the layer: shown in the
# report and the run record, not in the benchmark result.
DERIVED = (
    Metric(
        "montecarlo.live_fraction", "ratio", ("montecarlo.evaluate", _KM),
        lambda s: _ratio(s.sum("montecarlo.evaluate", "live"), s.evaluate_columns),
    ),
    Metric(
        "montecarlo.cap_fraction", "ratio", ("montecarlo.evaluate",),
        lambda s: None if s.n("montecarlo.evaluate") == 0 else s.attr_max[("montecarlo.evaluate", "cap_fraction")],
    ),
)


def layer_metrics(spans: list[Span], missing: dict) -> tuple[dict, dict]:
    """(values, missing metric -> reason).

    A metric is missing when a hook it reads is missing, or when it is a ratio
    whose base is zero on this workload.
    """
    stats = Stats(spans)
    values: dict = {}
    lost: dict = {}
    for m in PER_LAYER + DERIVED:
        bad = [h for h in m.hooks if h in missing]
        if bad:
            lost[m.name] = "; ".join(f"{h}: {missing[h]}" for h in bad)
            continue
        value = m.value(stats)
        if value is None:
            lost[m.name] = "undefined: this workload does not run the layer"
        else:
            values[m.name] = value
    return values, lost
