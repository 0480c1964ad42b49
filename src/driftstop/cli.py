"""Command-line front end.

Subcommands: ``psi``, ``solve``, ``verify``, ``closed-form``, ``simulate``.
A single JSON config document drives a run; every artifact can be regenerated
from the resolved config that each command writes next to its outputs.  Floats
are formatted with the shortest round-trip representation (``csvio``) so
identical configs produce byte-identical CSV/JSON artifacts.  ``solve`` also
saves the value surface as ``value_grid.npy``, from which ``verify`` rebuilds
the solved stopping rule; this module alone writes and reads that file.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import closed_form
from .csvio import format_row
from .dispersion import InversionError, clamp_to_interior, pde_residuals, psi_grid
from .montecarlo import SimConfig, evaluate_policy, policy_optimality_gap, simulate_paths, verify_variance_identity
from .prior import MAX_NODES, PosteriorError, PriorSpec, build_quadrature
from .stopping_solver import (
    BoundaryCurve,
    SolverConfig,
    SolverError,
    choose_horizon,
    default_domain,
    extract_regions,
    locally_good_check,
    monotonicity_report,
    solve_value,
    solver_psi_grid,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

REQUIRED, DERIVED = "required", "derived"


class Key(NamedTuple):
    type: type
    bounds: tuple = ()
    default: object = REQUIRED


# every key a config may hold, by block (None is the root), with its JSON type, its bounds as (operator, limit)
# pairs, a string limit being another key of the block, and its default: a value, REQUIRED, or DERIVED (worked
# out by ``_resolve``).  A policy key is required only by the kinds that read it.  Any other key is refused.
CONFIG_KEYS = {
    None: {
        "prior": Key(dict),
        "cost_c": Key(float, ((">", 0),)),
        "quadrature_n": Key(int, ((">=", 2), ("<=", MAX_NODES)), 128),
        "solver": Key(dict, default={}),
        "sim": Key(dict, default={}),
        "policy": Key(dict, default={"kind": "solver_boundary"}),
        "perturbations": Key(list, default=[-0.1, 0.1]),
        "output_dir": Key(str, default="driftstop_out"),
        # written to resolved_config.json so that it reruns: carried when solver.T_max is given, else scanned again
        "horizon_scan_capped": Key(bool, default=DERIVED),
    },
    "solver": {
        "n_t": Key(int, ((">=", 8),), 100),
        "n_x": Key(int, ((">=", 8),), 201),
        "T_max": Key(float, ((">", 0),), DERIVED),
        "x_lo": Key(float, default=DERIVED),
        "x_hi": Key(float, ((">", "x_lo"),), DERIVED),
    },
    "sim": {
        "n_paths": Key(int, ((">=", 1),), 20_000),
        "dt": Key(float, ((">", 0),), 0.01),
        "horizon": Key(float, ((">=", "dt"),), DERIVED),
        "seed": Key(int, ((">=", 0), ("<", 2**64)), 20260808),
        "export_paths": Key(int, ((">=", 1), ("<=", "n_paths")), DERIVED),
    },
    "policy": {
        "kind": Key(str, default="solver_boundary"),
        "time": Key(float, ((">=", 0),)),
        "a": Key(float, ((">=", 0),)),
    },
}

# the keys each policy kind requires besides 'kind'; a policy holds no other
POLICY_KINDS = {"solver_boundary": (), "stop_at": ("time",), "symmetric_threshold": ("a",)}

CLOSED_FORM_FLAGS = ("m", "sigma2", "sigma", "beta", "c", "t", "y")
# the flags each closed-form family requires
CLOSED_FORM_FAMILIES = {"gaussian": ("sigma2",), "bernoulli": ("beta", "c"), "half_normal": ("sigma2",),
                        "mixture": ("m", "sigma")}

_TYPES = {int: "an integer", float: "a finite number", list: "a list of finite numbers", str: "a string",
          bool: "a boolean", dict: "a JSON object"}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    """Parse a config and check the whole of it against ``CONFIG_KEYS``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for block, keys in CONFIG_KEYS.items():  # the root first: each block is an object when walked
        held = doc if block is None else doc.get(block, {})
        where, allowed = ("the config root" if block is None else repr(block)), tuple(keys)
        if block == "policy":
            kind = held.get("kind", keys["kind"].default)
            if not isinstance(kind, str) or kind not in POLICY_KINDS:
                known = ", ".join(POLICY_KINDS)
                raise ConfigError(f"key 'kind' in 'policy' names an unknown kind {kind!r}; known kinds: {known}")
            where, allowed = f"'policy' of kind {kind!r}", ("kind", *POLICY_KINDS[kind])
        for key, spec in keys.items():
            if key not in held:
                if spec.default == REQUIRED and key in allowed:
                    raise ConfigError(f"config is missing required key {key!r} in {where}")
            elif not _is(held[key], spec.type):
                raise ConfigError(f"config key {_name(block, key)!r} must be {_TYPES[spec.type]}, got {held[key]!r}")
        unknown = sorted(set(held) - set(allowed))
        if unknown:
            msg = f"unknown key {unknown[0]!r} in {where}; allowed keys: {', '.join(allowed)}"
            if block == "solver":
                msg += " (the solve starts from the stationary value; 'T_max' sets the window)"
            raise ConfigError(msg)
        _check_bounds(block, held, where if block == "policy" else "")
    return doc


def _is(value, kind: type) -> bool:
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if kind is list:
        return isinstance(value, list) and all(_is(v, float) for v in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _name(block: str | None, key: str) -> str:
    return key if block is None else f"{block}.{key}"


def _check_bounds(block: str | None, values: dict, where: str = "") -> None:
    """Refuse a value outside a bound of its key; a bound on another key waits until that key has a value."""
    for key, value in values.items():
        for op, limit in CONFIG_KEYS[block][key].bounds:
            shown = limit
            if isinstance(limit, str):
                if limit not in values:
                    continue
                shown, limit = f"{_name(block, limit)} = {values[limit]!r}", values[limit]
            if not _OPS[op](value, limit):
                named = f"key {key!r} in {where}" if where else f"config key {_name(block, key)!r}"
                raise ConfigError(f"{named} must be {op} {shown}, got {value!r}")


def _filled(doc: dict, block: str | None) -> dict:
    """A block's given values, each number as a float, over its constant defaults."""
    keys = CONFIG_KEYS[block]
    given = doc if block is None else doc.get(block, {})
    filled = {k: spec.default for k, spec in keys.items() if spec.default not in (REQUIRED, DERIVED)}
    return filled | {k: float(v) if keys[k].type is float else v for k, v in given.items()}


def _resolve(doc: dict, out_dir: str | None, seed_override: int | None):
    """Fill defaults, build the table, and return the working objects."""
    prior = PriorSpec.from_dict(doc["prior"])
    root = _filled(doc, None)
    table = build_quadrature(prior, n=root["quadrature_n"])
    c = root["cost_c"]

    x_lo, x_hi = default_domain(table)
    solver = {"x_lo": x_lo, "x_hi": x_hi, **_filled(doc, "solver")}
    _check_bounds("solver", solver)
    for key in ("x_lo", "x_hi"):
        try:
            clamp_to_interior(table, solver[key])
        except ValueError as exc:
            raise ConfigError(f"config key 'solver.{key}' is refused: {exc}") from exc

    capped = root.get("horizon_scan_capped", False)
    if "T_max" not in solver:
        x_scan = np.linspace(solver["x_lo"], solver["x_hi"], 41)
        hz = choose_horizon(
            lambda t: float(np.max(psi_grid(table, [t], x_scan, tol=1e-8).values ** 2)), np.linspace(0.0, 50.0, 201), c
        )
        capped = hz.capped
        solver["T_max"] = 8.0 if capped else (hz.horizon if hz.horizon > 0.0 else 1.0)
    config = SolverConfig(**solver)

    sim_doc = _filled(doc, "sim")
    sim_doc.setdefault("horizon", max(2.0 * config.T_max, 1.0))
    sim_doc.setdefault("export_paths", min(sim_doc["n_paths"], 200))
    _check_bounds("sim", sim_doc)
    if seed_override is not None:
        for op, limit in CONFIG_KEYS["sim"]["seed"].bounds:
            if not _OPS[op](seed_override, limit):
                raise ConfigError(f"--seed must be {op} {limit}, got {seed_override!r}")
        sim_doc["seed"] = seed_override
    sim = SimConfig(**{k: v for k, v in sim_doc.items() if k != "export_paths"})

    out = Path(out_dir if out_dir is not None else root["output_dir"])
    resolved = {**root, "prior": prior.to_dict(), "solver": asdict(config), "sim": sim_doc}
    resolved.update(horizon_scan_capped=capped, output_dir=str(out))
    return table, c, config, sim, out, resolved


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _problem_hash(resolved: dict) -> str:
    """SHA-256 of the resolved blocks that fix the stopping problem a boundary solves."""
    doc = {k: resolved[k] for k in ("prior", "cost_c", "quadrature_n", "solver")}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _prepare_out(out: Path, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved_config.json", resolved)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_psi(args) -> int:
    table, c, config, _, out, resolved = _resolve(_load_config(args.config), args.out, None)
    _prepare_out(out, resolved)

    grid = solver_psi_grid(table, config)
    grid.to_csv(out / "psi_grid.csv")

    # residual stencil points: interior in both time and state
    h = 1e-3
    t_lo = max(0.1, 2.0 * h)
    t_pts = np.linspace(t_lo, max(config.T_max, t_lo + 0.5), 5)
    x = config.x_nodes()
    x_pts = np.quantile(x, [0.15, 0.3, 0.5, 0.7, 0.85])
    with open(out / "pde_residuals.csv", "w", encoding="utf-8") as fh:
        fh.write("t,point,h,burgers,variance_pde,psi_pde\n")
        for tv in t_pts:
            for xv in x_pts:
                res = pde_residuals(table, float(tv), float(xv), h)
                fh.write(format_row((tv, xv, h, *res)) + "\n")
    print(f"wrote {out / 'psi_grid.csv'} and {out / 'pde_residuals.csv'}")
    return EXIT_OK


def cmd_solve(args) -> int:
    table, c, config, _, out, resolved = _resolve(_load_config(args.config), args.out, None)
    _prepare_out(out, resolved)

    grid = solve_value(solver_psi_grid(table, config), c, config)
    boundary = extract_regions(grid.values, config)
    report = monotonicity_report(grid)
    good = locally_good_check(grid)

    grid.to_csv(out / "value_grid.csv")
    np.save(out / "value_grid.npy", grid.values)
    boundary.to_csv(out / "boundary.csv")
    _write_json(out / "monotonicity_report.json", asdict(report))
    _write_json(
        out / "solver_meta.json",
        {
            "meta": grid.meta,
            "problem_hash": _problem_hash(resolved),
            "shape": boundary.shape,
            "locally_good_passed": good.passed,
            "locally_good_violations": good.n_violations,
        },
    )
    ok = report.passed and good.passed
    print(
        f"shape={boundary.shape} monotonicity={'pass' if report.passed else 'FAIL'} "
        f"locally_good={'pass' if good.passed else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_NUMERICAL


def _solver_boundary(out: Path, config: SolverConfig, resolved: dict) -> BoundaryCurve:
    """The rule ``solve`` extracts from the value grid it saved to ``out``, refused unless the grid fits this config."""
    path = out / "value_grid.npy"
    meta_path = out / "solver_meta.json"
    try:
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{meta_path} is not valid JSON ({exc}); it must hold the JSON object solve writes") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{meta_path} must hold a JSON object, got {type(meta).__name__}")
    have = meta.get("problem_hash")
    want = _problem_hash(resolved)
    if have != want:
        raise ConfigError(
            f"{path} was solved for problem_hash "
            f"{have or f'unknown (no problem_hash in {meta_path})'}, not for this config's {want}; "
            "run the solve command with this config first"
        )
    return extract_regions(_read_value_grid(path, (config.n_t + 1, config.n_x)), config)


def _read_value_grid(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The array ``cmd_solve`` saved to ``path``: native float64 of ``shape`` by its header, checked before
    any data is read, then whole and finite.  It holds no lattice: the problem hash covers the config's."""
    fmt, size = np.lib.format, 8 * shape[0] * shape[1]
    try:
        with open(path, "rb") as fh:
            if fmt.read_magic(fh) != (1, 0):
                raise ValueError("its .npy format version is not 1.0")
            have, fortran, dtype = fmt.read_array_header_1_0(fh)
            if (have, fortran, dtype) != (shape, False, np.dtype(float)):
                order = "Fortran-order " if fortran else ""
                raise ValueError(f"its header says {order}{dtype} of shape {have}, not float64 of shape {shape}")
            data = fh.read(size)
        if len(data) < size:
            raise ValueError(f"it is truncated, with {len(data)} of its {size} data bytes")
        values = np.frombuffer(data).reshape(shape)
        if not np.isfinite(values).all():
            raise ValueError("it holds a value that is not finite")
    except ValueError as exc:
        raise ConfigError(f"{path} is refused: {exc}; run the solve command with this config again") from None
    return values


def cmd_verify(args) -> int:
    table, c, config, sim, out, resolved = _resolve(_load_config(args.config), args.out, args.seed)

    policy_doc = resolved["policy"]
    kind = policy_doc.get("kind", CONFIG_KEYS["policy"]["kind"].default)
    if kind == "solver_boundary":
        policy = _solver_boundary(out, config, resolved)
    elif kind == "stop_at":
        policy = float(policy_doc["time"])
    else:
        policy = BoundaryCurve.symmetric_threshold(float(policy_doc["a"]))
    _prepare_out(out, resolved)

    # a shift moves only finite interval ends, so a rule without one has no gap to measure
    with_gaps = isinstance(policy, BoundaryCurve) and policy.has_finite_end
    shifts = resolved["perturbations"] if with_gaps else ()
    cost = evaluate_policy(table, c, policy, sim, shifts)
    identity = verify_variance_identity(table, cost)

    gap_results = None
    gaps_ok = True
    if with_gaps:
        gap_results = policy_optimality_gap(cost)
        # fail only on evidence against optimality: a perturbation whose
        # cost is significantly below the solver boundary's
        gaps_ok = all(r.gap + 2.0 * r.gap_se >= 0.0 for r in gap_results if r.shift != 0.0)

    report = {
        "policy": policy_doc,
        "cost": {
            "mean": cost.mean,
            "std_error": cost.std_error,
            "components": {
                "estimation_error": cost.components[0],
                "time_cost": cost.components[1],
            },
            "cap_fraction": cost.cap_fraction,
            "warning": cost.warning,
        },
        "variance_identity": identity.to_dict(),
        "optimality_gap": None if gap_results is None else [r._asdict() for r in gap_results],
        "passed": bool(identity.passed and gaps_ok),
    }
    _write_json(out / "verify.json", report)
    print(
        f"cost={cost.mean:.6f}+-{cost.std_error:.6f} "
        f"identity={'pass' if identity.passed else 'FAIL'} "
        f"gaps={'pass' if gaps_ok else 'FAIL'}"
    )
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def cmd_closed_form(args) -> int:
    flags = {name: getattr(args, name) for name in CLOSED_FORM_FLAGS if getattr(args, name) is not None}
    for flag, value in flags.items():
        if not math.isfinite(value):
            raise ConfigError(f"--{flag} must be a finite number, got {value!r}")
    if args.c is not None and args.c <= 0.0:
        raise ConfigError(f"--c must be positive, got {args.c!r}")
    if args.t is not None and args.t < 0.0:
        raise ConfigError(f"--t must be >= 0, got {args.t!r}")
    given = " ".join(f"--{flag} {value!r}" for flag, value in flags.items())
    try:
        rec = _closed_form_record(args)
    except OverflowError as exc:
        raise OverflowError(f"the {args.family} record overflows a float at {given}: {exc}") from exc
    # a record field that overflowed to inf (or to nan through inf) is not JSON
    for key, value in rec.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise OverflowError(f"closed-form field {key!r} is {value!r} at {given}")
    json.dump(rec, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _closed_form_record(args) -> dict:
    family = args.family
    required = CLOSED_FORM_FAMILIES[family]
    if any(getattr(args, flag) is None for flag in required):
        raise ConfigError(f"{family} requires {' and '.join(f'--{flag}' for flag in required)}")
    rec: dict = {"family": family}
    t = args.t if args.t is not None else 0.0
    y = args.y if args.y is not None else 0.0
    if family == "gaussian":
        m = args.m if args.m is not None else 0.0
        fa = closed_form.gaussian_analytics(m, args.sigma2, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H, psi=fa.psi)
        if args.c is not None:
            rec["tau_star"] = closed_form.gaussian_tau_star(args.sigma2, args.c)
            rec["value_at_t"] = closed_form.gaussian_value(args.sigma2, args.c, t)
    elif family == "bernoulli":
        sol = closed_form.bernoulli_solve(args.beta, args.c)
        rec.update(
            gamma=sol.gamma,
            boundary=sol.boundary_a,
            trivial_stop=sol.boundary_a is None,
            value_at_zero=sol.u(0.0) if sol.boundary_a is not None else 0.0,
        )
    elif family == "half_normal":
        fa = closed_form.halfnormal_analytics(args.sigma2, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H)
        rec["H_limit_large_y"] = args.sigma2 / (1.0 + args.sigma2 * t)
    elif family == "mixture":
        fa = closed_form.mixture_analytics(args.m, args.sigma, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H)
        if args.c is not None:
            t_inf, t_zero = closed_form.mixture_boundary_thresholds(args.m, args.sigma, args.c)
            rec.update(t_infinity=t_inf, t_zero=t_zero)
    return rec


def cmd_simulate(args) -> int:
    table, c, config, sim, out, resolved = _resolve(_load_config(args.config), args.out, args.seed)
    _prepare_out(out, resolved)
    cap_paths = resolved["sim"]["export_paths"]
    batch = simulate_paths(table, replace(sim, n_paths=cap_paths))
    batch.to_csv(out / "paths.csv")
    summary = {
        "n_paths": cap_paths,
        "mean_x_hat_terminal": float(np.mean(batch.x_hat[:, -1])),
        "mean_x_true": float(np.mean(batch.x_true)),
        "prior_mean": table.mean(),
        "prior_variance": table.variance(),
    }
    _write_json(out / "simulate_summary.json", summary)
    print(f"wrote {out / 'paths.csv'} ({cap_paths} paths)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstop",
        description="Filtering, optimal stopping, and Monte Carlo verification "
        "for sequential drift estimation under observation cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("psi", cmd_psi, "tabulate the dispersion surface and PDE residuals"),
        ("solve", cmd_solve, "solve the stopping problem and extract regions"),
        ("verify", cmd_verify, "Monte Carlo checks of a stopping policy"),
        ("simulate", cmd_simulate, "export monitored sample paths"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if func in (cmd_verify, cmd_simulate):
            p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
        p.set_defaults(func=func)

    p_cf = sub.add_parser("closed-form", help="closed-form records for the tractable families")
    p_cf.add_argument("--family", required=True, choices=list(CLOSED_FORM_FAMILIES))
    for name in CLOSED_FORM_FLAGS:
        p_cf.add_argument(f"--{name}", type=float, default=None)
    p_cf.set_defaults(func=cmd_closed_form)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, InversionError, PosteriorError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
