"""The benchmark's workloads: problem inputs, the CLI commands run on them,
and the oracle checks of what those commands wrote.

Configs carry problem inputs only (prior, cost, grid sizes, path counts).
They never name a method knob, so a change that removes or re-defaults a
knob shows up in the timings without the benchmark being edited.  The
workload seed reaches the program only as ``verify --seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

# Config keys that choose *how* the program computes, not *what*.
METHOD_KNOBS = frozenset(
    {
        "scheme",
        "t_burnin",
        "T_max",
        "T_max_when_capped",
        "horizon_scan_limit",
        "obstacle_tol",
        "bc",
    }
)


def is_method_knob(key: str) -> bool:
    return key in METHOD_KNOBS or key.startswith("psor_")


def config_keys(doc) -> set[str]:
    """Every key at any depth of a JSON document."""
    keys: set[str] = set()
    if isinstance(doc, dict):
        for k, v in doc.items():
            keys.add(k)
            keys |= config_keys(v)
    elif isinstance(doc, list):
        for v in doc:
            keys |= config_keys(v)
    return keys


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict  # run name -> config document
    commands: tuple  # (subcommand, run name), in order
    hooks: frozenset  # trace hooks every run of this workload must reach
    check: Callable  # (work dir) -> (list of Check, dict of accuracy values)


def command_argv(sub: str, run: str, seed: int) -> list[str]:
    """CLI arguments of one command; relative paths keep resolved configs identical across runs."""
    argv = [sub, "--config", f"{run}.json", "--out", run]
    if sub == "verify":
        argv += ["--seed", str(seed)]
    return argv


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------


class BoundaryRow(NamedTuple):
    t: float
    shape: str
    b: float
    segments: list


def read_boundary(path: Path) -> list[BoundaryRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            t, shape, b, ivals = line.rstrip("\n").split(",", 3)
            segs = [tuple(float(v) for v in s.split(":")) for s in ivals.split(";") if s]
            rows.append(BoundaryRow(float(t), shape, float(b), segs))
    return rows


def _solver_lattice(run_dir: Path) -> dict:
    return json.loads((run_dir / "resolved_config.json").read_text())["solver"]


def _is_all_stop(row: BoundaryRow, x_lo: float, x_hi: float) -> bool:
    return len(row.segments) == 1 and row.segments[0][0] <= x_lo and row.segments[0][1] >= x_hi


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_solve_continuous(work: Path) -> tuple[list[Check], dict]:
    from driftstop.closed_form import gaussian_tau_star, mixture_boundary_thresholds

    checks = []

    lat = _solver_lattice(work / "gaussian")
    dt = lat["T_max"] / lat["n_t"]
    tau = gaussian_tau_star(1.0, 0.25)
    rows = read_boundary(work / "gaussian" / "boundary.csv")
    first = next((r.t for r in rows if _is_all_stop(r, lat["x_lo"], lat["x_hi"])), math.inf)
    checks.append(
        Check(
            "gaussian_first_all_stop_row",
            abs(first - tau) <= 2.0 * dt,
            f"first all-stop row t={first!r}, tau*={tau!r}, 2 cells={2.0 * dt!r}",
        )
    )

    lat = _solver_lattice(work / "mixture")
    dt = lat["T_max"] / lat["n_t"]
    t_inf, t_zero = mixture_boundary_thresholds(1.0, 1.0, 0.04)
    rows = read_boundary(work / "mixture" / "boundary.csv")
    early = [r for r in rows if r.t < t_inf - dt]
    late = [r for r in rows if r.t >= t_zero + dt]
    early_bad = sum(1 for r in early if r.segments)
    late_bad = sum(1 for r in late if not _is_all_stop(r, lat["x_lo"], lat["x_hi"]))
    checks.append(
        Check(
            "mixture_thresholds",
            bool(early) and bool(late) and early_bad == 0 and late_bad == 0,
            f"{early_bad}/{len(early)} rows before t_inf-dt={t_inf - dt!r} stop somewhere, "
            f"{late_bad}/{len(late)} rows from t_zero+dt={t_zero + dt!r} are not all-stop",
        )
    )

    rows = read_boundary(work / "half_normal" / "boundary.csv")
    shape = rows[0].shape if rows else "none"
    drops = sum(1 for a, b in zip(rows, rows[1:]) if not b.b >= a.b)
    checks.append(
        Check(
            "half_normal_one_sided_lower",
            shape == "one_sided_lower" and drops == 0,
            f"shape={shape}, {drops} decreases of b over {len(rows)} rows",
        )
    )
    return checks, {}


def _read_first_value_row(path: Path) -> tuple[list[float], list[float]]:
    with open(path, encoding="utf-8") as fh:
        x = [float(v) for v in fh.readline().rstrip("\n").split(",")[1:]]
        v0 = [float(v) for v in fh.readline().rstrip("\n").split(",")[1:]]
    return x, v0


def _check_chain_two_point(work: Path) -> tuple[list[Check], dict]:
    from driftstop.closed_form import bernoulli_solve

    run = work / "bernoulli"
    lat = _solver_lattice(run)
    dx = (lat["x_hi"] - lat["x_lo"]) / (lat["n_x"] - 1)
    sol = bernoulli_solve(1.0, 0.25)
    a = sol.boundary_a
    rows = read_boundary(run / "boundary.csv")
    b_err = max((abs(r.b - a) for r in rows), default=math.inf) / dx
    x, v0 = _read_first_value_row(run / "value_grid.csv")
    v_err = max(abs(v - sol.u(xv)) for xv, v in zip(x, v0))
    verify = json.loads((run / "verify.json").read_text())
    checks = [
        Check("boundary_err_cells", b_err <= 1.0, f"max_t |b(t)-a|/dx = {b_err!r} <= 1 (a={a!r})"),
        Check("value_err", v_err <= 1e-3, f"||v(0,.)-u||_inf = {v_err!r} <= 1e-3"),
        Check(
            "verify_passed",
            verify["passed"] is True,
            f"identity passed={verify['variance_identity']['passed']}, "
            f"gaps={'skipped' if verify['optimality_gap'] is None else len(verify['optimality_gap'])}",
        ),
    ]
    return checks, {"boundary_err_cells": b_err, "value_err": v_err}


def _check_verify_gaussian(work: Path) -> tuple[list[Check], dict]:
    from driftstop.closed_form import gaussian_tau_star

    tau = gaussian_tau_star(1.0, 0.25)
    expected = 1.0 / (1.0 + tau) + 0.25 * tau  # posterior variance at tau* plus c * tau*
    cost = json.loads((work / "gaussian" / "verify.json").read_text())["cost"]
    dev = abs(cost["mean"] - expected)
    return [
        Check(
            "cost_within_3se",
            dev <= 3.0 * cost["std_error"],
            f"cost {cost['mean']!r} +- {cost['std_error']!r} vs {expected!r}",
        )
    ], {}


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

_SOLVER_HOOKS = {
    "prior.quadrature",
    "dispersion.horizon_scan",
    "dispersion.psi_grid",
    "prior.kernel.dispersion",
    "stopping_solver.solve",
    "stopping_solver.extract",
    "stopping_solver.monotonicity",
    "stopping_solver.locally_good",
    "cli.write.value_grid",
    "cli.write.boundary",
    "cli.write.json",
}
_MC_HOOKS = {"prior.kernel.montecarlo", "montecarlo.evaluate", "montecarlo.identity"}

GAUSSIAN = {"kind": "gaussian", "m": 0.0, "sigma2": 1.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve_continuous",
            configs={
                "gaussian": {"prior": GAUSSIAN, "cost_c": 0.25},
                "half_normal": {"prior": {"kind": "half_normal", "sigma2": 1.0}, "cost_c": 0.25},
                "mixture": {
                    "prior": {"kind": "symmetric_gaussian_mixture", "m": 1.0, "sigma": 1.0},
                    "cost_c": 0.04,
                },
            },
            commands=(("solve", "gaussian"), ("solve", "half_normal"), ("solve", "mixture")),
            hooks=frozenset(_SOLVER_HOOKS),
            check=_check_solve_continuous,
        ),
        Workload(
            name="chain_two_point",
            configs={
                "bernoulli": {
                    "prior": {"kind": "discrete_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
                    "cost_c": 0.25,
                    "solver": {"n_t": 200, "n_x": 201},
                    "sim": {"n_paths": 10_000, "dt": 0.01, "horizon": 30.0},
                    "policy": {"kind": "solver_boundary"},
                    "perturbations": [-0.05, 0.05],
                },
            },
            commands=(("solve", "bernoulli"), ("verify", "bernoulli")),
            hooks=frozenset(_SOLVER_HOOKS | _MC_HOOKS | {"montecarlo.gap"}),
            check=_check_chain_two_point,
        ),
        Workload(
            name="verify_gaussian",
            configs={
                "gaussian": {
                    "prior": GAUSSIAN,
                    "cost_c": 0.25,
                    "quadrature_n": 128,
                    "sim": {"n_paths": 20_000, "dt": 0.01, "horizon": 1.5},
                    "policy": {"kind": "stop_at", "time": 1.0},
                },
            },
            commands=(("verify", "gaussian"),),
            hooks=frozenset(
                {"prior.quadrature", "dispersion.horizon_scan", "prior.kernel.dispersion", "cli.write.json"}
                | _MC_HOOKS
            ),
            check=_check_verify_gaussian,
        ),
    )
}
