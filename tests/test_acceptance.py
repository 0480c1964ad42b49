"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive solves are
session fixtures shared across criteria; each criterion's stated runtime limit
covers its own pipeline (dispersion surface + solve + extraction), measured in
the fixture that builds it.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from driftstop import (
    SimConfig,
    SolverConfig,
    bernoulli_analytics,
    bernoulli_solve,
    build_quadrature,
    compare_value_ordering,
    default_domain,
    evaluate_policy,
    extract_regions,
    gaussian_analytics,
    gaussian_tau_star,
    halfnormal_analytics,
    heat_residual_F,
    locally_good_check,
    mixture_analytics,
    mixture_boundary_thresholds,
    monotonicity_report,
    pde_residuals,
    posterior_mean_var,
    psi,
    psi_grid,
    PriorSpec,
    solve_value,
    solver_psi_grid,
    verify_variance_identity,
    widder_F,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _pipeline(table, c, **kw):
    lo, hi = default_domain(table)
    kw.setdefault("x_lo", lo)
    kw.setdefault("x_hi", hi)
    cfg = SolverConfig(**kw)
    start = time.perf_counter()
    grid = solve_value(solver_psi_grid(table, cfg), c, cfg)
    boundary = extract_regions(grid.values, grid.config)
    elapsed = time.perf_counter() - start
    return grid, boundary, cfg, elapsed


@pytest.fixture(scope="module")
def gaussian_solution(gaussian_table):
    return _pipeline(gaussian_table, 0.25, n_t=400, n_x=401, T_max=1.1)


@pytest.fixture(scope="module")
def bernoulli_solution(bernoulli_table):
    return _pipeline(
        bernoulli_table,
        0.25,
        n_t=800,
        n_x=801,
        T_max=3.0,
    )


@pytest.fixture(scope="module")
def halfnormal_solution(halfnormal_table):
    return _pipeline(halfnormal_table, 0.25, n_t=400, n_x=401, T_max=1.1)


@pytest.fixture(scope="module")
def mixture_solution(mixture_table):
    _, t_zero = mixture_boundary_thresholds(1.0, 1.0, 0.04)
    return _pipeline(mixture_table, 0.04, n_t=500, n_x=401, T_max=1.1 * t_zero)


# ---------------------------------------------------------------------------
# criterion 1: gaussian optimal time
# ---------------------------------------------------------------------------


def test_criterion_1_gaussian_optimal_time(gaussian_solution):
    grid, boundary, cfg, elapsed = gaussian_solution
    tau_star = gaussian_tau_star(1.0, 0.25)
    stop_rows = np.all(grid.values >= -cfg.zero_tol, axis=1)
    first_full = np.nonzero(stop_rows)[0]
    ok = first_full.size > 0 and bool(np.all(stop_rows[first_full[0] :]))
    t0 = grid.t_nodes[first_full[0]] if first_full.size else math.inf
    ok = ok and abs(t0 - tau_star) <= 2.0 * cfg.dt
    x_dep = float(np.max(grid.values.max(axis=1) - grid.values.min(axis=1)))
    ok = ok and x_dep <= cfg.obstacle_tol
    ok = ok and elapsed < 10.0
    _report(
        "1",
        ok,
        f"all-stop from t0={t0:.4f} (tau*={tau_star}, 2 cells = {2 * cfg.dt:.4f}), "
        f"x-dependence {x_dep:.2e} <= {cfg.obstacle_tol}, runtime {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# criterion 2: bernoulli free boundary
# ---------------------------------------------------------------------------


def test_criterion_2_bernoulli_free_boundary(bernoulli_solution):
    grid, boundary, cfg, elapsed = bernoulli_solution
    start = time.perf_counter()
    sol = bernoulli_solve(1.0, 0.25, root_tol=1e-11)
    a = sol.boundary_a
    q_at_a = abs(sol.Q(a))
    ok_a = q_at_a <= 1e-10

    dx = grid.x_nodes[1] - grid.x_nodes[0]
    b_err = float(np.max(np.abs(boundary.b - a)))
    ok_b = boundary.shape == "two_sided_symmetric" and b_err <= dx

    u_vals = np.array([sol.u(x) for x in grid.x_nodes])
    v_err = float(np.max(np.abs(grid.values[0] - u_vals)))
    ok_c = v_err <= 1e-3
    total = elapsed + time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and total < 30.0
    _report(
        "2",
        ok,
        f"|Q(a)|={q_at_a:.2e} <= 1e-10, boundary error {b_err:.2e} <= one cell {dx:.2e}, "
        f"||v(0,.)-u||_inf={v_err:.2e} <= 1e-3, runtime {total:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# criterion 3: variance identity under the bernoulli boundary policy
# ---------------------------------------------------------------------------


def test_criterion_3_variance_identity(bernoulli_table, bernoulli_solution):
    _, boundary, _, _ = bernoulli_solution
    sim = SimConfig(n_paths=100_000, dt=0.01, horizon=30.0, seed=2026)
    start = time.perf_counter()
    rep = verify_variance_identity(bernoulli_table, evaluate_policy(bernoulli_table, 0.25, boundary, sim))
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 60.0
    _report(
        "3",
        ok,
        f"lhs={rep.lhs:.5f}+-{rep.lhs_se:.5f} rhs={rep.rhs:.5f}+-{rep.rhs_se:.5f} "
        f"(paired diff {rep.paired_diff:.2e}+-{rep.paired_se:.2e}), runtime {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 4: policy costs
# ---------------------------------------------------------------------------


def test_criterion_4_policy_costs(all_tables, gaussian_table):
    details = []
    ok = True

    tau = gaussian_tau_star(1.0, 0.25)
    est = evaluate_policy(
        gaussian_table, 0.25, tau, SimConfig(n_paths=100_000, dt=0.01, horizon=1.5, seed=404)
    )
    hit = abs(est.mean - 0.75) <= 3.0 * est.std_error
    ok = ok and hit
    details.append(f"gaussian tau*: {est.mean:.4f}+-{est.std_error:.4f} vs 0.75 ({'ok' if hit else 'off'})")

    for name, table in all_tables.items():
        est = evaluate_policy(
            table, 0.25, 0.0, SimConfig(n_paths=100_000, dt=0.01, horizon=0.02, seed=405)
        )
        var = table.variance()
        hit = abs(est.mean - var) <= 3.0 * est.std_error + 1e-12
        ok = ok and hit
        details.append(f"{name} stop-at-0: {est.mean:.4f} vs Var={var:.4f} ({'ok' if hit else 'off'})")
    _report("4", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 5: structural theorems
# ---------------------------------------------------------------------------


def test_criterion_5_structural_theorems(
    gaussian_solution, bernoulli_solution, halfnormal_solution, mixture_solution, mixture_table
):
    details = []
    ok = True

    solutions = {
        "gaussian": gaussian_solution,
        "bernoulli": bernoulli_solution,
        "half_normal": halfnormal_solution,
        "mixture": mixture_solution,
    }
    for name, (grid, boundary, cfg, _) in solutions.items():
        rep = monotonicity_report(grid)
        good = locally_good_check(grid)
        ok = ok and rep.passed and good.passed
        details.append(
            f"{name}: monotone {'ok' if rep.passed else 'BAD'} "
            f"(worst {rep.worst_value_violation:.1e}, nest {rep.nesting_violations}), "
            f"locally-good {'ok' if good.passed else 'BAD'}"
        )

    # symmetry of v for the symmetric priors
    for name in ("gaussian", "bernoulli", "mixture"):
        grid, _, cfg, _ = solutions[name]
        sym = float(np.max(np.abs(grid.values - grid.values[:, ::-1])))
        hit = sym <= cfg.obstacle_tol
        ok = ok and hit
        details.append(f"{name} symmetry {sym:.1e}")

    # one-sided boundary monotonicity (inf slices encode empty/full stopping)
    _, b_half, _, _ = halfnormal_solution
    with np.errstate(invalid="ignore"):
        d = np.diff(b_half.b)
    hit = b_half.shape == "one_sided_lower" and bool(np.all(d[np.isfinite(d)] >= -1e-9))
    ok = ok and hit
    details.append(f"half_normal boundary non-decreasing ({'ok' if hit else 'BAD'})")

    _, b_mix, _, _ = mixture_solution
    with np.errstate(invalid="ignore"):
        d = np.diff(b_mix.b)
    hit = b_mix.shape == "two_sided_symmetric" and bool(np.all(d[np.isfinite(d)] <= 1e-9))
    ok = ok and hit
    details.append(f"mixture boundary non-increasing ({'ok' if hit else 'BAD'})")

    # value ordering: larger dispersion -> smaller value, on three pairs
    c = 0.25
    tb1 = build_quadrature(PriorSpec.bernoulli(1.0, 0.5))
    tb2 = build_quadrature(PriorSpec.bernoulli(1.2, 0.5))
    g_small, _ = _ordering_solve(tb1, c, x_lo=-0.9975, x_hi=0.9975, n_x=400)
    g_big, _ = _ordering_solve(tb2, c, x_lo=-1.1975, x_hi=1.1975, n_x=480)
    rep = compare_value_ordering(g_big, g_small, tol=1e-6)
    ok = ok and rep.passed
    details.append(f"ordering bernoulli beta 1.2>=1.0 ({'ok' if rep.passed else 'BAD'})")

    lo, hi = default_domain(mixture_table)
    cfg_m = SolverConfig(n_t=80, n_x=81, T_max=5.0, x_lo=lo, x_hi=hi)
    times, xs = cfg_m.solve_times(), cfg_m.x_nodes()
    g_early = solve_value(psi_grid(mixture_table, times, xs), 0.04, cfg_m)
    g_late = solve_value(replace(psi_grid(mixture_table, times + 1.0, xs), t_nodes=times), 0.04, cfg_m)
    rep = compare_value_ordering(g_early, g_late, tol=1e-8)
    ok = ok and rep.passed
    details.append(f"ordering time-shift ({'ok' if rep.passed else 'BAD'})")

    tg2 = build_quadrature(PriorSpec.gaussian(0.0, 2.0), n=64)
    tg1 = build_quadrature(PriorSpec.gaussian(0.0, 1.0), n=64)
    cfg_g = SolverConfig(n_t=80, n_x=81, T_max=1.8, x_lo=-6.0, x_hi=6.0)
    gv2 = solve_value(solver_psi_grid(tg2, cfg_g), c, cfg_g)
    gv1 = solve_value(solver_psi_grid(tg1, cfg_g), c, cfg_g)
    rep = compare_value_ordering(gv2, gv1, tol=1e-10)
    ok = ok and rep.passed
    details.append(f"ordering gaussian variances ({'ok' if rep.passed else 'BAD'})")

    _report("5", ok, "; ".join(details))


def _ordering_solve(table, c, *, x_lo, x_hi, n_x):
    cfg = SolverConfig(
        n_t=60,
        n_x=n_x,
        T_max=0.6,
        x_lo=x_lo,
        x_hi=x_hi,
    )
    return solve_value(solver_psi_grid(table, cfg), c, cfg), cfg


# ---------------------------------------------------------------------------
# criterion 6: mixture thresholds
# ---------------------------------------------------------------------------


def test_criterion_6_mixture_thresholds(mixture_solution):
    grid, boundary, cfg, _ = mixture_solution
    t_inf, t_zero = mixture_boundary_thresholds(1.0, 1.0, 0.04)
    dt = cfg.dt
    empty = np.array([len(iv) == 0 for iv in boundary.intervals])
    full = np.array(
        [
            len(iv) == 1 and iv[0][0] <= grid.x_nodes[0] and iv[0][1] >= grid.x_nodes[-1]
            for iv in boundary.intervals
        ]
    )
    before = grid.t_nodes < t_inf - dt
    ok_empty = bool(np.all(empty[before]))
    after = grid.t_nodes >= t_zero + dt
    ok_full = bool(np.all(full[after])) and bool(np.any(after))
    ok = ok_empty and ok_full
    _report(
        "6",
        ok,
        f"stopping empty for t < {t_inf} - {dt:.4f} ({'ok' if ok_empty else 'BAD'}); "
        f"full line for t >= {t_zero:.4f} + {dt:.4f} ({'ok' if ok_full else 'BAD'})",
    )


# ---------------------------------------------------------------------------
# criterion 7: second-order residual convergence
# ---------------------------------------------------------------------------


def test_criterion_7_pde_residual_convergence(all_tables):
    floor = 1e-11
    h1, h2 = 0.08, 0.04
    details = []
    ok = True
    for name, table in all_tables.items():
        r1 = pde_residuals(table, 0.5, 0.37, h1)
        r2 = pde_residuals(table, 0.5, 0.37, h2)
        orders = []
        for label, a, b in zip(("burgers", "variance", "psi"), r1, r2):
            if abs(a) < floor and abs(b) < floor:
                orders.append(f"{label}:floor")
                continue
            order = math.log2(abs(a) / abs(b))
            ok = ok and order >= 1.8
            orders.append(f"{label}:{order:.2f}")
        f1 = heat_residual_F(table, 0.5, 0.37, h1)
        f2 = heat_residual_F(table, 0.5, 0.37, h2)
        order = math.log2(abs(f1) / abs(f2))
        ok = ok and order >= 1.8
        orders.append(f"heat:{order:.2f}")
        details.append(f"{name}[{' '.join(orders)}]")
    _report("7", ok, "observed orders >= 1.8: " + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalence of the quadrature pipeline
# ---------------------------------------------------------------------------


def test_criterion_8_oracle_equivalence(all_tables):
    lattices = {
        "gaussian": (np.linspace(0.0, 3.0, 20), np.linspace(-3.0, 3.0, 20)),
        "bernoulli": (np.linspace(0.0, 3.0, 20), np.linspace(-3.0, 3.0, 20)),
        "half_normal": (np.linspace(0.0, 3.0, 20), np.linspace(-2.0, 3.0, 20)),
        "mixture": (np.linspace(0.0, 3.0, 20), np.linspace(-4.0, 4.0, 20)),
    }
    oracles = {
        "gaussian": lambda t, y: gaussian_analytics(0.0, 1.0, t, y),
        "bernoulli": lambda t, y: bernoulli_analytics(1.0, 0.5, t, y),
        "half_normal": lambda t, y: halfnormal_analytics(1.0, t, y),
        "mixture": lambda t, y: mixture_analytics(1.0, 1.0, t, y),
    }
    ok = True
    details = []
    for name, table in all_tables.items():
        t_nodes, y_nodes = lattices[name]
        worst = 0.0
        for t in t_nodes:
            g_row, h_row = posterior_mean_var(table, t, y_nodes)
            for j, y in enumerate(y_nodes):
                fa = oracles[name](t, y)
                worst = max(worst, abs(float(g_row[j]) - fa.G))
                worst = max(worst, abs(float(h_row[j]) - fa.H))
                worst = max(worst, abs(widder_F(table, t, y).value - fa.F))
                worst = max(worst, abs(psi(table, t, float(fa.G)) - fa.H))
        hit = worst <= 1e-6
        ok = ok and hit
        details.append(f"{name}: {worst:.2e}")
    _report("8", ok, "max |quadrature - closed form| over F,G,H,Psi lattices: " + "; ".join(details))
