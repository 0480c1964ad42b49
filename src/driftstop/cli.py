"""Command-line front end.

Subcommands: ``psi``, ``solve``, ``verify``, ``closed-form``, ``simulate``.
A single JSON config document drives a run; every artifact can be regenerated
from the resolved config that each command writes next to its outputs.  Floats
are formatted with the shortest round-trip representation (``csvio``) so
identical configs produce byte-identical CSV/JSON artifacts.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import closed_form
from .csvio import format_row
from .dispersion import InversionError, pde_residuals, psi_grid
from .montecarlo import SimConfig, evaluate_policy, policy_optimality_gap, simulate_paths, verify_variance_identity
from .prior import PosteriorError, PriorSpec, build_quadrature
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

# the keys each block of a config may hold; any other key is refused
BLOCK_KEYS = {
    "solver": ("n_t", "n_x", "T_max", "x_lo", "x_hi"),
    "sim": ("n_paths", "dt", "horizon", "seed", "export_paths"),
    "policy": ("kind", "time", "a"),
}

# the keys each policy kind reads besides 'kind'; a missing or unused one is refused
POLICY_KEYS = {"solver_boundary": (), "stop_at": ("time",), "symmetric_threshold": ("a",)}

# the counts a config may set, by block (None is the root); each must be a JSON integer
COUNT_KEYS = {None: ("quadrature_n",), "solver": ("n_t", "n_x"), "sim": ("n_paths", "seed", "export_paths")}

# the real-valued keys a config may set, by block; each must be a finite JSON number
NUMBER_KEYS = {"solver": ("T_max", "x_lo", "x_hi"), "sim": ("dt", "horizon"), "policy": ("time", "a")}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if "prior" not in doc:
        raise ConfigError("config is missing required key 'prior'")
    if "cost_c" not in doc:
        raise ConfigError("config is missing required key 'cost_c'")
    c = doc["cost_c"]
    if isinstance(c, bool) or not isinstance(c, (int, float)) or not c > 0:
        raise ConfigError(f"config key 'cost_c' must be a positive number, got {c!r}")
    if not isinstance(doc.get("output_dir", ""), str):
        raise ConfigError(f"config key 'output_dir' must be a string, got {doc['output_dir']!r}")
    for block, allowed in BLOCK_KEYS.items():
        held = doc.get(block, {})
        if not isinstance(held, dict):
            raise ConfigError(f"config key {block!r} must be a JSON object, got {held!r}")
        unknown = sorted(set(held) - set(allowed))
        if unknown:
            msg = f"unknown key {unknown[0]!r} in {block!r}; allowed keys: {', '.join(allowed)}"
            if block == "solver":
                msg += " (the solve starts from the stationary value; 'T_max' sets the window)"
            raise ConfigError(msg)
    _check_types(doc, COUNT_KEYS, lambda v: isinstance(v, int), "an integer")
    _check_types(doc, NUMBER_KEYS, lambda v: isinstance(v, (int, float)) and math.isfinite(v), "a finite number")
    _check_policy(doc.get("policy", {}))
    return doc


def _check_policy(policy: dict) -> None:
    """Refuse an unknown policy kind, a key its kind needs but lacks or holds but does not use,
    and a negative stopping time or threshold."""
    kind = policy.get("kind", "solver_boundary")
    if not isinstance(kind, str) or kind not in POLICY_KEYS:
        known = ", ".join(POLICY_KEYS)
        raise ConfigError(f"key 'kind' in 'policy' names an unknown kind {kind!r}; known kinds: {known}")
    needed = POLICY_KEYS[kind]
    for key in needed:
        if key not in policy:
            raise ConfigError(f"policy kind {kind!r} requires key {key!r} in 'policy'")
    unused = sorted(set(policy) - {"kind", *needed})
    if unused:
        raise ConfigError(f"key {unused[0]!r} in 'policy' is not used by policy kind {kind!r}")
    for key in needed:
        if policy[key] < 0:
            raise ConfigError(f"key {key!r} in 'policy' must be >= 0 for policy kind {kind!r}, got {policy[key]!r}")


def _check_types(doc: dict, keys_by_block: dict, accepts, what: str) -> None:
    """Refuse a boolean, or a value ``accepts`` rejects, under any of the listed keys."""
    for block, keys in keys_by_block.items():
        held = doc if block is None else doc.get(block, {})
        for key in keys:
            if key in held and (isinstance(held[key], bool) or not accepts(held[key])):
                name = key if block is None else f"{block}.{key}"
                raise ConfigError(f"config key {name!r} must be {what}, got {held[key]!r}")


def _resolve(doc: dict, out_dir: str | None, seed_override: int | None):
    """Fill defaults, build the table, and return the working objects."""
    prior = PriorSpec.from_dict(doc["prior"])
    n_quad = doc.get("quadrature_n", 128)
    table = build_quadrature(prior, n=n_quad)
    c = float(doc["cost_c"])

    solver_doc = dict(doc.get("solver", {}))
    perturbations = doc.get("perturbations", [-0.1, 0.1])
    if not (
        isinstance(perturbations, list)
        and all(isinstance(s, (int, float)) and not isinstance(s, bool) and math.isfinite(s) for s in perturbations)
    ):
        raise ConfigError(f"config key 'perturbations' must be a list of finite numbers, got {perturbations!r}")
    x_lo_d, x_hi_d = default_domain(table)
    x_lo = float(solver_doc.get("x_lo", x_lo_d))
    x_hi = float(solver_doc.get("x_hi", x_hi_d))
    n_t = solver_doc.get("n_t", 100)
    n_x = solver_doc.get("n_x", 201)

    capped = False
    if "T_max" in solver_doc:
        t_max = float(solver_doc["T_max"])
    else:
        x_scan = np.linspace(x_lo, x_hi, 41)
        hz = choose_horizon(
            lambda t: float(np.max(psi_grid(table, [t], x_scan, tol=1e-8).values ** 2)),
            np.linspace(0.0, 50.0, 201),
            c,
        )
        capped = hz.capped
        t_max = hz.horizon if hz.horizon > 0.0 else 1.0
        if capped:
            t_max = 8.0

    config = SolverConfig(n_t=n_t, n_x=n_x, T_max=t_max, x_lo=x_lo, x_hi=x_hi)

    sim_doc = dict(doc.get("sim", {}))
    seed = seed_override if seed_override is not None else sim_doc.get("seed", 20260808)
    sim = SimConfig(
        n_paths=sim_doc.get("n_paths", 20_000),
        dt=float(sim_doc.get("dt", 0.01)),
        horizon=float(sim_doc.get("horizon", max(2.0 * config.T_max, 1.0))),
        seed=seed,
    )
    export_paths = sim_doc.get("export_paths", min(sim.n_paths, 200))
    if not 1 <= export_paths <= sim.n_paths:
        raise ConfigError(
            f"config key 'sim.export_paths' must be between 1 and sim.n_paths = {sim.n_paths}, got {export_paths!r}"
        )

    out = Path(out_dir if out_dir is not None else doc.get("output_dir", "driftstop_out"))
    resolved = {
        "prior": prior.to_dict(),
        "cost_c": c,
        "quadrature_n": n_quad,
        "solver": config.to_dict(),
        "sim": {
            "n_paths": sim.n_paths,
            "dt": sim.dt,
            "horizon": sim.horizon,
            "seed": sim.seed,
            "export_paths": export_paths,
        },
        "policy": doc.get("policy", {"kind": "solver_boundary"}),
        "perturbations": perturbations,
        "horizon_scan_capped": capped,
        "output_dir": str(out),
    }
    return prior, table, c, config, sim, out, resolved


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
    doc = _load_config(args.config)
    prior, table, c, config, _, out, resolved = _resolve(doc, args.out, None)
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
    doc = _load_config(args.config)
    prior, table, c, config, _, out, resolved = _resolve(doc, args.out, None)
    _prepare_out(out, resolved)

    grid = solve_value(solver_psi_grid(table, config), c, config)
    boundary = extract_regions(grid)
    report = monotonicity_report(grid)
    good = locally_good_check(grid)

    grid.to_csv(out / "value_grid.csv")
    boundary.to_csv(out / "boundary.csv")
    _write_json(out / "monotonicity_report.json", report.to_dict())
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


def _solver_boundary(out: Path, resolved: dict) -> BoundaryCurve:
    """The boundary ``solve`` wrote to ``out``, refused unless it solves this config's problem."""
    path = out / "boundary.csv"
    if not path.exists():
        raise ConfigError(f"boundary file not found: {path}; run the solve command first")
    policy = BoundaryCurve.from_csv(path)
    meta_path = out / "solver_meta.json"
    have = json.loads(meta_path.read_text()).get("problem_hash") if meta_path.exists() else None
    want = _problem_hash(resolved)
    if have != want:
        raise ConfigError(
            f"{path} was solved for problem_hash "
            f"{have or f'unknown (no problem_hash in {meta_path})'}, not for this config's {want}; "
            "run the solve command with this config first"
        )
    return policy


def cmd_verify(args) -> int:
    doc = _load_config(args.config)
    prior, table, c, config, sim, out, resolved = _resolve(doc, args.out, args.seed)

    policy_doc = resolved["policy"]
    kind = policy_doc.get("kind", "solver_boundary")
    if kind == "solver_boundary":
        policy = _solver_boundary(out, resolved)
    elif kind == "stop_at":
        policy = float(policy_doc["time"])
    else:
        policy = BoundaryCurve.symmetric_threshold(float(policy_doc["a"]))
    _prepare_out(out, resolved)

    # a shift moves only finite interval ends, so a rule without one has no gap to measure
    with_gaps = (
        isinstance(policy, BoundaryCurve)
        and policy.shape in ("two_sided_symmetric", "one_sided_lower")
        and any(math.isfinite(end) for segs in policy.intervals for seg in segs for end in seg)
    )
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
        "optimality_gap": None
        if gap_results is None
        else [r._asdict() for r in gap_results],
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
    names = ("m", "sigma2", "sigma", "beta", "c", "t", "y")
    flags = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
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
    rec: dict = {"family": family}
    t = args.t if args.t is not None else 0.0
    y = args.y if args.y is not None else 0.0
    if family == "gaussian":
        if args.sigma2 is None:
            raise ConfigError("gaussian requires --sigma2")
        m = args.m if args.m is not None else 0.0
        fa = closed_form.gaussian_analytics(m, args.sigma2, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H, psi=fa.psi)
        if args.c is not None:
            rec["tau_star"] = closed_form.gaussian_tau_star(args.sigma2, args.c)
            rec["value_at_t"] = closed_form.gaussian_value(args.sigma2, args.c, t)
    elif family == "bernoulli":
        if args.beta is None or args.c is None:
            raise ConfigError("bernoulli requires --beta and --c")
        sol = closed_form.bernoulli_solve(args.beta, args.c)
        rec.update(
            gamma=sol.gamma,
            boundary=sol.boundary_a,
            trivial_stop=sol.boundary_a is None,
            value_at_zero=sol.u(0.0) if sol.boundary_a is not None else 0.0,
        )
    elif family == "half_normal":
        if args.sigma2 is None:
            raise ConfigError("half_normal requires --sigma2")
        fa = closed_form.halfnormal_analytics(args.sigma2, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H)
        rec["H_limit_large_y"] = args.sigma2 / (1.0 + args.sigma2 * t)
    elif family == "mixture":
        if args.m is None or args.sigma is None:
            raise ConfigError("mixture requires --m and --sigma")
        fa = closed_form.mixture_analytics(args.m, args.sigma, t, y)
        rec.update(t=t, y=y, F=fa.F, G=fa.G, H=fa.H)
        if args.c is not None:
            t_inf, t_zero = closed_form.mixture_boundary_thresholds(args.m, args.sigma, args.c)
            rec.update(t_infinity=t_inf, t_zero=t_zero)
    return rec


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    prior, table, c, config, sim, out, resolved = _resolve(doc, args.out, args.seed)
    _prepare_out(out, resolved)
    cap_paths = resolved["sim"]["export_paths"]
    sim_small = SimConfig(n_paths=cap_paths, dt=sim.dt, horizon=sim.horizon, seed=sim.seed)
    batch = simulate_paths(table, sim_small)
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

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    p_psi = sub.add_parser("psi", help="tabulate the dispersion surface and PDE residuals")
    add_common(p_psi)
    p_psi.set_defaults(func=cmd_psi)

    p_solve = sub.add_parser("solve", help="solve the stopping problem and extract regions")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="Monte Carlo checks of a stopping policy")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    p_verify.set_defaults(func=cmd_verify)

    p_cf = sub.add_parser("closed-form", help="closed-form records for the tractable families")
    p_cf.add_argument("--family", required=True, choices=["gaussian", "bernoulli", "half_normal", "mixture"])
    p_cf.add_argument("--m", type=float, default=None)
    p_cf.add_argument("--sigma2", type=float, default=None)
    p_cf.add_argument("--sigma", type=float, default=None)
    p_cf.add_argument("--beta", type=float, default=None)
    p_cf.add_argument("--c", type=float, default=None)
    p_cf.add_argument("--t", type=float, default=None)
    p_cf.add_argument("--y", type=float, default=None)
    p_cf.set_defaults(func=cmd_closed_form)

    p_sim = sub.add_parser("simulate", help="export monitored sample paths")
    add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverError, InversionError, PosteriorError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
