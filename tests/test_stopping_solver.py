import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from driftstop import (
    BoundaryCurve,
    HorizonResult,
    PriorSpec,
    QuadratureTable,
    SolverConfig,
    bernoulli_comparison_check,
    bernoulli_solve,
    build_quadrature,
    choose_horizon,
    compare_value_ordering,
    default_domain,
    extract_regions,
    gaussian_value,
    locally_good_check,
    monotonicity_report,
    psi_grid,
    solve_value,
    solver_psi_grid,
    stopping_solver,
)
from driftstop.stopping_solver import SolverError, _policy_step, _step_operator, _sweep


def _solve(table, c, *, n_t=80, n_x=81, T_max=1.0, x_lo=None, x_hi=None):
    lo, hi = default_domain(table)
    cfg = SolverConfig(
        n_t=n_t,
        n_x=n_x,
        T_max=T_max,
        x_lo=lo if x_lo is None else x_lo,
        x_hi=hi if x_hi is None else x_hi,
    )
    return solve_value(solver_psi_grid(table, cfg), c, cfg), cfg


# ---------------------------------------------------------------------------
# configuration and horizon
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_t=4, n_x=81, T_max=1.0, x_lo=-1.0, x_hi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(n_t=80, n_x=81, T_max=0.0, x_lo=-1.0, x_hi=1.0)
    with pytest.raises(ValueError):
        SolverConfig(n_t=80, n_x=81, T_max=1.0, x_lo=1.0, x_hi=-1.0)


def _sup_psi2(table, x_nodes, tol=1e-10, calls=None):
    """sup_x Psi(t, .)^2 over ``x_nodes``, one single-row grid per call; ``calls`` records each t."""

    def row(t):
        if calls is not None:
            calls.append(t)
        return float(np.max(psi_grid(table, [t], x_nodes, tol=tol).values ** 2))

    return row


def test_choose_horizon_gaussian(gaussian_table):
    res = choose_horizon(_sup_psi2(gaussian_table, np.linspace(-4.0, 4.0, 9)), np.linspace(0.0, 3.0, 301), 0.25)
    assert not res.capped
    assert res.t_c == pytest.approx(1.0, abs=0.02)
    assert res.horizon == pytest.approx(1.1 * res.t_c)


def test_choose_horizon_degenerate_and_capped(bernoulli_table):
    sup_psi2, t_scan = _sup_psi2(bernoulli_table, np.linspace(-0.99, 0.99, 21)), np.linspace(0.0, 5.0, 26)
    res = choose_horizon(sup_psi2, t_scan, 1.0)  # sup psi^2 = beta^4 = 1 <= c everywhere
    assert res.t_c == 0.0 and res.horizon == 0.0 and not res.capped
    res = choose_horizon(sup_psi2, t_scan, 0.25)  # never falls below sqrt(c)
    assert res.capped and res.horizon == pytest.approx(5.0)


def test_choose_horizon_mixture_brackets(mixture_table):
    res = choose_horizon(_sup_psi2(mixture_table, np.linspace(-6.0, 6.0, 17)), np.linspace(0.0, 8.0, 401), 0.04)
    assert 4.0 <= res.t_c <= 4.8742  # within one scan cell above t_zero


@pytest.mark.parametrize(
    "prior, c, capped",
    [
        (PriorSpec.gaussian(0.0, 1.0), 0.25, False),
        (PriorSpec.half_normal(1.0), 0.25, False),
        (PriorSpec.symmetric_gaussian_mixture(1.0, 1.0), 0.04, False),
        (PriorSpec.bernoulli(1.0, 0.5), 0.25, True),
        (PriorSpec.bernoulli(1.0, 0.5), 1.0, False),  # t_c = 0
    ],
    ids=["gaussian", "half_normal", "mixture", "atoms-capped", "atoms-t_c-zero"],
)
def test_choose_horizon_bisection_matches_full_scan(prior, c, capped):
    # the CLI's scan lattice: 201 rows to t = 50, 41 nodes over the default domain
    table = build_quadrature(prior, n=128)
    t_scan, x_scan = np.linspace(0.0, 50.0, 201), np.linspace(*default_domain(table), 41)
    calls = []
    res = choose_horizon(_sup_psi2(table, x_scan, 1e-8, calls), t_scan, c)

    sup_psi2 = np.max(psi_grid(table, t_scan, x_scan, tol=1e-8).values ** 2, axis=1)
    hits = np.nonzero(sup_psi2 <= c)[0]
    if hits.size == 0:
        full = HorizonResult(t_c=None, horizon=50.0, capped=True)
    else:
        full = HorizonResult(t_c=float(t_scan[hits[0]]), horizon=1.1 * float(t_scan[hits[0]]), capped=False)
    assert res == full
    assert res.capped == capped
    assert len(calls) == 1 if capped else len(calls) <= 9
    if prior.kind == "discrete_atoms" and not capped:
        assert res.t_c == 0.0


# ---------------------------------------------------------------------------
# value solves
# ---------------------------------------------------------------------------


def test_bernoulli_cost_dominates_short_circuit(bernoulli_table):
    grid, _ = _solve(bernoulli_table, 1.0, T_max=1.0)
    assert np.all(grid.values == 0.0)


def test_gaussian_value_close_to_closed_form(gaussian_table):
    grid, cfg = _solve(gaussian_table, 0.25, n_t=160, n_x=81, T_max=1.1)
    j_mid = grid.x_nodes.size // 2
    expect = gaussian_value(1.0, 0.25, 0.0)
    assert grid.values[0, j_mid] == pytest.approx(expect, abs=5e-3)
    # x independence of every time slice
    assert np.max(grid.values.max(axis=1) - grid.values.min(axis=1)) <= 1e-12


def test_solve_rejects_psi_off_the_solver_lattice(gaussian_table):
    lo, hi = default_domain(gaussian_table)
    cfg = SolverConfig(n_t=20, n_x=21, T_max=1.1, x_lo=lo, x_hi=hi)
    coarse = psi_grid(gaussian_table, cfg.solve_times(), np.linspace(lo, hi, 11))
    with pytest.raises(ValueError, match="solver lattice"):
        solve_value(coarse, 0.25, cfg)


def test_value_bounds(all_tables):
    cases = {"bernoulli": 0.25, "gaussian": 0.25, "half_normal": 0.25, "mixture": 0.04}
    for name, table in all_tables.items():
        grid, _ = _solve(table, cases[name], n_t=40, n_x=41, T_max=1.0)
        assert np.all(grid.values <= 0.0)
        assert np.min(grid.values) >= -table.variance() - 1e-9


def test_obstacle_complementarity(bernoulli_table):
    grid, cfg = _solve(bernoulli_table, 0.25, n_t=80, n_x=81, T_max=1.0)
    dt = cfg.dt
    dx = grid.x_nodes[1] - grid.x_nodes[0]
    ztol = cfg.zero_tol
    # recheck the discrete variational inequality of the BDF2 step on a few
    # reported rows
    for k in [0, 20, 50]:
        v, v_next, v_after = grid.values[k], grid.values[k + 1], grid.values[k + 2]
        psi2 = grid.psi_values[k] ** 2
        mu = 0.5 * dt * psi2 / dx**2
        rhs = 2.0 * v_next - 0.5 * v_after + dt * (0.25 - psi2)
        av = (1.5 + 2.0 * mu) * v
        av[1:] += -mu[1:] * v[:-1]
        av[:-1] += -mu[:-1] * v[1:]
        # interior nodes only (boundary rows have the reflected stencil)
        resid = (rhs - av)[1:-1]
        stopped = v[1:-1] >= -ztol
        # continuing nodes satisfy the linear equation
        assert np.max(np.abs(resid[~stopped])) <= 1e-9
        # stopped nodes satisfy the inequality
        assert np.min(resid[stopped]) >= -1e-9


def test_grid_convergence_bernoulli_spatial(bernoulli_table):
    # error vs the exact stationary value; the free boundary's offset within a
    # cell makes single-step ratios noisy, so measure across two doublings
    u0 = bernoulli_solve(1.0, 0.25).u(0.0)
    errs = []
    for n in (80, 160, 320):
        grid, _ = _solve(bernoulli_table, 0.25, n_t=n, n_x=n + 1, T_max=1.0)
        j_mid = grid.x_nodes.size // 2
        errs.append(abs(grid.values[0, j_mid] - u0))
    avg_order = math.log2(errs[0] / errs[-1]) / 2.0
    assert avg_order >= 1.0


def test_grid_convergence_gaussian_temporal(gaussian_table):
    # x-independent case isolates the second-order BDF2 time stepping
    expect = gaussian_value(1.0, 0.25, 0.0)
    errs = []
    for n_t in (50, 100, 200):
        grid, _ = _solve(gaussian_table, 0.25, n_t=n_t, n_x=41, T_max=1.1)
        errs.append(abs(grid.values[0, 20] - expect))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8


@pytest.mark.parametrize("n_t", [100, 101])
def test_time_error_estimate_gaussian(gaussian_table, n_t):
    # the every-second-row re-solve costs no kernel call and tracks the true
    # time error of v(0, .) (7.7e-5 at n_t = 100); with n_t odd the rows both
    # solves share stop at row 1
    grid, _ = _solve(gaussian_table, 0.25, n_t=n_t, n_x=41, T_max=1.1)
    err = float(np.max(np.abs(grid.values[0] - gaussian_value(1.0, 0.25, 0.0))))
    est = grid.meta["time_error_estimate"]
    assert 0.5 * err <= est <= 2.0 * err


@pytest.mark.parametrize("name, c, T_max", [("half_normal", 0.25, 1.1), ("mixture", 0.04, 5.5)])
def test_space_error_estimate_bounds_the_nodal_error(all_tables, name, c, T_max):
    # the CLI defaults at n_x = 201 against a 1601-node reference on the same
    # window and rows: the every-second-node re-solve bounds the error of
    # v(0, .) at the nodes (1.8e-5 and 1.4e-4), not the error of interpolating
    # between them, which is larger
    grid, _ = _solve(all_tables[name], c, n_t=100, n_x=201, T_max=T_max)
    ref, _ = _solve(all_tables[name], c, n_t=100, n_x=1601, T_max=T_max)
    err = float(np.max(np.abs(grid.values[0] - ref.values[0, ::8])))
    est = grid.meta["space_error_estimate"]
    assert err <= est <= 3.0 * err


def test_space_error_estimate_none_for_even_nodes_and_zero_when_flat(gaussian_table):
    # an even n_x has no nested lattice that ends at x_hi; the Gaussian v is flat in x
    even, _ = _solve(gaussian_table, 0.25, n_t=40, n_x=40, T_max=1.1)
    assert even.meta["space_error_estimate"] is None
    flat, _ = _solve(gaussian_table, 0.25, n_t=40, n_x=41, T_max=1.1)
    assert 0.0 <= flat.meta["space_error_estimate"] <= 1e-12


def test_bdf2_leaves_the_two_point_lattice_where_it_was(bernoulli_table):
    # two-point Psi is constant in t, so v_inf is a fixed point of BDF2 and of
    # implicit Euler alike: the BDF2 rows match an implicit Euler march on the
    # same Psi grid (the rows themselves drift ~5e-12 from v_inf under either
    # scheme, because the inverted Psi rows differ from Psi_inf by ~1e-10)
    grid, cfg = _solve(bernoulli_table, 0.25, n_t=200, n_x=201, T_max=8.0)
    dx = grid.x_nodes[1] - grid.x_nodes[0]
    v = grid.values[-1]
    for k in range(cfg.n_t - 1, -1, -1):
        psi_k = grid.psi_values[k]
        lower, diag, upper = _step_operator(psi_k, cfg.dt, dx)
        v, _, _ = _policy_step(v + cfg.dt * (0.25 - psi_k**2), lower, diag, upper, v >= 0.0)
        assert np.max(np.abs(grid.values[k] - v)) <= 1e-13


# ---------------------------------------------------------------------------
# region extraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bern_grid(bernoulli_table):
    grid, _ = _solve(bernoulli_table, 0.25, n_t=120, n_x=241, T_max=1.2)
    return grid


def test_extract_bernoulli_boundary(bern_grid):
    sol = bernoulli_solve(1.0, 0.25)
    bnd = extract_regions(bern_grid.values, bern_grid.config)
    assert bnd.shape == "two_sided_symmetric"
    dx = bern_grid.x_nodes[1] - bern_grid.x_nodes[0]
    assert np.max(np.abs(bnd.b - sol.boundary_a)) <= dx


def test_extract_gaussian_all_stop(gaussian_table):
    grid, _ = _solve(gaussian_table, 1.0, n_t=40, n_x=41, T_max=1.0)
    bnd = extract_regions(grid.values, grid.config)
    assert bnd.shape == "all_stop"


def test_boundary_contains_and_shift():
    curve = BoundaryCurve.symmetric_threshold(0.9)
    assert curve.contains(0.5, np.array([0.95, -0.95])).all()
    assert not curve.contains(0.5, np.array([0.0, 0.5])).any()
    wider = curve.shifted(0.05)
    assert not wider.contains(0.0, np.array([0.92]))[0]
    lower = BoundaryCurve.stop_below(0.3)
    assert lower.contains(1.0, np.array([0.2]))[0]
    assert not lower.contains(1.0, np.array([0.4]))[0]


def test_shift_preserves_infinite_slices():
    # empty (b = -inf) and full (b = +inf) slices survive a one-sided shift
    curve = BoundaryCurve(
        t_nodes=np.array([0.0, 1.0, 2.0]),
        intervals=[[], [(-math.inf, 0.5)], [(-math.inf, math.inf)]],
        shape="one_sided_lower",
    )
    sh = curve.shifted(0.1)
    assert not sh.contains(0.0, np.array([0.0]))[0]
    assert sh.contains(1.0, np.array([0.39]))[0]
    assert not sh.contains(1.0, np.array([0.41]))[0]
    assert sh.contains(2.0, np.array([100.0]))[0]


def test_slice_index_of_an_array_matches_each_time():
    # the walk looks up every monitored time at once; each must get the slice
    # contains uses: the last one starting at or before t + 1e-15, the first before t_nodes[0]
    curve = BoundaryCurve(np.array([0.5, 1.0, 2.0]), [[], [(0.0, 1.0)], [(-1.0, 1.0)]], "general")
    t = np.array([0.0, 0.5 - 1e-14, 0.5 - 1e-16, 0.5, 0.7, 1.0 - 2e-16, 1.0, 1.9999, 2.0, 30.0])
    got = curve.slice_index(t)
    assert got.tolist() == [curve.slice_index(float(tk)) for tk in t]
    assert got.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 2, 2]


def test_shift_moves_every_finite_end_outward():
    # an interior stopping interval has two finite ends; it vanishes once they cross
    curve = BoundaryCurve(np.array([0.0]), [[(-math.inf, -1.0), (0.2, 0.6)]], "general")
    assert curve.shifted(0.1).intervals == [[(-math.inf, -1.0 - 0.1), (0.2 + 0.1, 0.6 - 0.1)]]
    assert curve.shifted(0.3).intervals == [[(-math.inf, -1.0 - 0.3)]]
    assert curve.shifted(-0.1).intervals == [[(-math.inf, -1.0 + 0.1), (0.2 - 0.1, 0.6 + 0.1)]]


# (prior, c, T_max) of the example priors, and the shape their rule takes
_EXAMPLE_RULES = {
    "gaussian": (0.25, 1.1, "two_sided_symmetric"),
    "bernoulli": (0.25, 1.0, "two_sided_symmetric"),
    "half_normal": (0.25, 2.0, "one_sided_lower"),
    "mixture": (0.04, 5.34, "two_sided_symmetric"),
}


def test_reflected_half_normal_stops_above_a_mirrored_boundary(halfnormal_table):
    # X -> -X maps the half-normal onto a prior on (-inf, 0], and the stopping
    # problem onto its mirror image: the value grid mirrors and the rule, which
    # stops at and below b(t) for the half-normal, stops at and above -b(t)
    reflected = QuadratureTable(-halfnormal_table.nodes[::-1], halfnormal_table.weights[::-1], (-math.inf, 0.0))
    grid, _ = _solve(halfnormal_table, 0.25, n_t=40, n_x=81, T_max=3.0)
    grid_r, _ = _solve(reflected, 0.25, n_t=40, n_x=81, T_max=3.0)
    assert np.max(np.abs(grid_r.values - grid.values[:, ::-1])) <= 1e-14
    rule, rule_r = extract_regions(grid.values, grid.config), extract_regions(grid_r.values, grid_r.config)
    assert (rule.shape, rule_r.shape) == ("one_sided_lower", "one_sided_upper")
    finite = np.isfinite(rule.b)
    assert finite.any() and np.array_equal(np.isfinite(rule_r.b), finite)
    assert np.max(np.abs(rule_r.b[finite] + rule.b[finite])) <= 1e-12


@pytest.fixture(scope="module")
def example_rules(all_tables):
    rules = {}
    for name, (c, t_max, _) in _EXAMPLE_RULES.items():
        grid, _ = _solve(all_tables[name], c, n_t=40, n_x=81, T_max=t_max)
        rules[name] = extract_regions(grid.values, grid.config)
    rules["symmetric_threshold"] = BoundaryCurve.symmetric_threshold(0.9)
    rules["stop_below"] = BoundaryCurve.stop_below(0.3)
    return rules


@pytest.mark.parametrize("name", [*_EXAMPLE_RULES, "symmetric_threshold", "stop_below"])
def test_rule_is_its_intervals(example_rules, name):
    curve = example_rules[name]
    if name in _EXAMPLE_RULES:
        assert curve.shape == _EXAMPLE_RULES[name][2]
    assert curve.shifted(0.0).intervals == curve.intervals


def test_stop_runs_at_the_window_edge_are_unbounded(example_rules, halfnormal_table):
    # the Gaussian rule stops nowhere before tau* = 1 and everywhere after it,
    # on the whole line rather than on the solved window only
    curve = example_rules["gaussian"]
    assert curve.intervals[0] == [] and curve.intervals[-1] == [(-math.inf, math.inf)]
    assert curve.contains(1.1, np.array([-100.0, 100.0])).all()
    assert curve.b[0] == math.inf and curve.b[-1] == 0.0
    ends = [e for segs in example_rules["half_normal"].intervals for seg in segs for e in seg]
    assert -math.inf in ends
    lo, hi = default_domain(halfnormal_table)
    assert lo not in ends and hi not in ends


def test_monotonicity_report_passes(bern_grid):
    rep = monotonicity_report(bern_grid)
    assert rep.passed
    assert rep.nesting_violations == 0


def test_bernoulli_value_is_time_independent(bern_grid):
    # the dispersion has no time dependence, so neither is the value: the
    # stationary terminal slice is a fixed point of every step, up to round-off
    dev = np.max(bern_grid.values.max(axis=0) - bern_grid.values.min(axis=0))
    assert dev <= 1e-6


def test_stationary_solve_settles_on_a_fine_grid(bernoulli_table):
    # the stationary free boundary moves one node per policy iteration, from
    # |x| = 0.707 to 0.917: about 0.21 / dx iterations, ~126 at 1201 nodes
    g, _ = _solve(bernoulli_table, 0.25, n_t=8, n_x=1201)
    assert g.meta["max_step_iterations"] > 100
    j_mid = g.x_nodes.size // 2
    assert abs(g.values[0, j_mid] - bernoulli_solve(1.0, 0.25).u(0.0)) <= 1e-3


# ---------------------------------------------------------------------------
# value-ordering comparisons
# ---------------------------------------------------------------------------


def test_value_ordering_bernoulli_pair():
    c = 0.25
    dx = 0.005
    tb1 = build_quadrature(PriorSpec.bernoulli(1.0, 0.5))
    tb2 = build_quadrature(PriorSpec.bernoulli(1.2, 0.5))
    g_small, _ = _solve(tb1, c, n_t=60, n_x=400, T_max=0.6, x_lo=-0.9975, x_hi=0.9975)
    g_big, _ = _solve(tb2, c, n_t=60, n_x=480, T_max=0.6, x_lo=-1.1975, x_hi=1.1975)
    rep = compare_value_ordering(g_big, g_small, tol=1e-6)
    assert rep.passed
    assert rep.n_common_x >= 300


def test_value_ordering_time_shift(mixture_table):
    c = 0.04
    lo, hi = default_domain(mixture_table)
    cfg = SolverConfig(n_t=60, n_x=61, T_max=5.0, x_lo=lo, x_hi=hi)
    times, x = cfg.solve_times(), cfg.x_nodes()
    g_early = solve_value(psi_grid(mixture_table, times, x), c, cfg)
    g_late = solve_value(replace(psi_grid(mixture_table, times + 1.0, x), t_nodes=times), c, cfg)
    rep = compare_value_ordering(g_early, g_late, tol=1e-8)
    assert rep.passed


def test_value_ordering_gaussian_variances():
    c = 0.25
    t1 = build_quadrature(PriorSpec.gaussian(0.0, 2.0), n=64)
    t2 = build_quadrature(PriorSpec.gaussian(0.0, 1.0), n=64)
    cfg = SolverConfig(n_t=60, n_x=61, T_max=1.8, x_lo=-6.0, x_hi=6.0)
    g1 = solve_value(solver_psi_grid(t1, cfg), c, cfg)
    g2 = solve_value(solver_psi_grid(t2, cfg), c, cfg)
    rep = compare_value_ordering(g1, g2, tol=1e-10)
    assert rep.passed


def test_value_ordering_rejects_wrong_premise(mixture_table):
    c = 0.04
    lo, hi = default_domain(mixture_table)
    cfg = SolverConfig(n_t=60, n_x=61, T_max=5.0, x_lo=lo, x_hi=hi)
    times, x = cfg.solve_times(), cfg.x_nodes()
    g_early = solve_value(psi_grid(mixture_table, times, x), c, cfg)
    g_late = solve_value(replace(psi_grid(mixture_table, times + 1.0, x), t_nodes=times), c, cfg)
    with pytest.raises(ValueError, match="premise"):
        compare_value_ordering(g_late, g_early)


# ---------------------------------------------------------------------------
# benchmark containment and locally-good checks
# ---------------------------------------------------------------------------


def test_bernoulli_comparison_case_i_self(bern_grid, bernoulli_table):
    rep = bernoulli_comparison_check(bern_grid, 1.0, bernoulli_table)
    assert rep.passed and "case (i)" in rep.detail


def test_bernoulli_comparison_case_i_contained():
    inner = build_quadrature(PriorSpec.bernoulli(0.6, 0.5))
    grid, _ = _solve(inner, 0.25, n_t=40, n_x=81, T_max=0.5)
    rep = bernoulli_comparison_check(grid, 1.0, inner)
    assert rep.passed and "case (i)" in rep.detail


def test_bernoulli_comparison_case_i_tabulated():
    # a one-sided density supported inside [-1, 1], solved end to end
    grid_pts = np.linspace(0.05, 0.9, 35)
    dens = np.sqrt(np.maximum(0.9 - grid_pts, 0.0))
    prior = PriorSpec.tabulated_density(grid_pts, dens)
    table = build_quadrature(prior, n=128)
    grid, _ = _solve(table, 0.25, n_t=40, n_x=81, T_max=0.5)
    rep = bernoulli_comparison_check(grid, 1.0, table)
    assert rep.passed and "case (i)" in rep.detail


def test_bernoulli_comparison_case_ii():
    outer = build_quadrature(PriorSpec.bernoulli(2.0, 0.5))
    grid, _ = _solve(outer, 0.25, n_t=40, n_x=161, T_max=0.5)
    rep = bernoulli_comparison_check(grid, 1.0, outer)
    assert rep.passed and "case (ii)" in rep.detail


def test_odd_node_count_table_inverts(gaussian_table):
    # odd Gauss-Hermite rules place a node exactly at the mean; the inversion
    # bracketing must survive the zero node at large bracket magnitudes
    table = build_quadrature(PriorSpec.gaussian(0.0, 1.0), n=65)
    from driftstop import invert_G, posterior_mean_var

    y = invert_G(table, 0.5, 3.0, tol=1e-11)
    g, _ = posterior_mean_var(table, 0.5, y)
    assert abs(g[0] - 3.0) <= 1e-11


def test_bernoulli_comparison_rejects_straddling(gaussian_table):
    grid, _ = _solve(gaussian_table, 0.25, n_t=40, n_x=41, T_max=1.1)
    with pytest.raises(ValueError):
        bernoulli_comparison_check(grid, 1.0, gaussian_table)


def test_locally_good(bern_grid, gaussian_table):
    rep = locally_good_check(bern_grid)
    assert rep.passed
    # nodes with psi^2 > c must include everything inside |x| < gamma
    grid, _ = _solve(gaussian_table, 1.0, n_t=40, n_x=41, T_max=1.0)
    rep = locally_good_check(grid)  # vacuous: psi^2 <= c everywhere
    assert rep.passed and rep.n_checked == 0


def test_singular_step_operator_is_a_solver_error():
    # an exactly zero pivot fails the sweep's pivot test, like any pivot not
    # above 1e-12 x its diagonal; a singular operator is a numerical failure
    # (exit 3), not bad input (exit 2)
    n = 5
    zeros = np.zeros(n)
    with pytest.raises(SolverError, match="singular"):
        _policy_step(np.ones(n), zeros, zeros, zeros, np.zeros(n, dtype=bool))


def test_stationary_operator_without_a_stopped_row_is_a_solver_error():
    # with both edges reflecting and no stopped row the stationary operator's
    # rows sum to zero, so it is singular; elimination leaves a last pivot of
    # round-off size, and a solve that took it would return v ~ -5.9e15 as settled
    psi = np.linspace(0.5, 1.0, 41)
    lower, diag, upper = _step_operator(psi, 1.0, 0.1)
    with pytest.raises(SolverError, match="at row 40"):
        _policy_step(np.full(41, -1.0), lower, diag - 1.0, upper, np.zeros(41, dtype=bool))


def test_nan_in_the_step_operator_is_a_solver_error():
    # unchecked, a NaN diagonal entry would come back as an all-NaN v, reported as settled
    psi = np.linspace(0.5, 1.0, 41)
    lower, diag, upper = _step_operator(psi, 0.01, 0.1)
    diag[7] = math.nan
    with pytest.raises(SolverError, match="pivot nan at row 7"):
        _policy_step(0.25 - psi**2, lower, diag, upper, np.zeros(41, dtype=bool))


def _dgtsv_masked(rhs, lower, diag, upper, stopped):
    """The policy step's linear solve as LAPACK does it: stopped rows become identity rows."""
    lo = np.where(stopped, 0.0, lower)
    up = np.where(stopped, 0.0, upper)
    d = np.where(stopped, 1.0, diag)
    b = np.where(stopped, 0.0, rhs)
    *_, v, info = dgtsv(lo[1:], d, up[:-1], b)
    assert info == 0
    return v


def _policy_step_dgtsv(rhs, lower, diag, upper, stopped, max_iter=100):
    """Policy iteration with LAPACK's banded solve: the reference for the sweep."""
    slack = 1e-13 * max(1.0, float(np.max(np.abs(rhs))))
    for it in range(1, max_iter + 1):
        v = _dgtsv_masked(rhs, lower, diag, upper, stopped)
        resid = rhs - diag * v
        resid[1:] -= lower[1:] * v[:-1]
        resid[:-1] -= upper[:-1] * v[1:]
        new_stopped = np.where(stopped, resid >= -slack, v > slack)
        if np.array_equal(new_stopped, stopped):
            return np.minimum(v, 0.0), stopped, it
        stopped = new_stopped
    raise AssertionError("reference policy iteration did not settle")


def _random_operators(rng, n):
    """Implicit Euler, BDF2 and stationary operators on a random dispersion row."""
    psi = rng.uniform(0.2, 1.5, n)
    dx = rng.uniform(0.01, 0.2)
    lower, diag, upper = _step_operator(psi, rng.uniform(0.001, 0.5), dx)
    s_lower, s_diag, s_upper = _step_operator(psi, 1.0, dx)
    return {
        "euler": (lower, diag, upper),
        "bdf2": (lower, diag + 0.5, upper),
        "stationary": (s_lower, s_diag - 1.0, s_upper),
    }


def _oracle_masks(rng, n):
    rows = np.arange(n)
    middle = (rows >= n // 3) & (rows < 2 * n // 3)
    return {
        "none_stopped": np.zeros(n, dtype=bool),
        "all_stopped": np.ones(n, dtype=bool),
        # single-node runs; one of the two touches each edge, whatever the parity of n
        "odd_rows_stopped": rows % 2 == 1,
        "even_rows_stopped": rows % 2 == 0,
        "middle_stopped": middle,  # a run at each reflecting edge
        "edges_stopped": ~middle,
        "random": rng.random(n) < 0.4,
    }


@pytest.mark.parametrize("seed", range(6))
def test_run_sweep_matches_lapack_on_the_masked_system(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 90))
    for op_name, (lower, diag, upper) in _random_operators(rng, n).items():
        rhs = rng.normal(size=n) * rng.uniform(0.01, 10.0)
        for mask_name, stopped in _oracle_masks(rng, n).items():
            if op_name == "stationary" and not stopped.any():
                continue  # singular: see the test above
            v = np.array(_sweep(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist(), stopped.tolist()))
            ref = _dgtsv_masked(rhs, lower, diag, upper, stopped)
            assert np.all(v[stopped] == 0.0), (op_name, mask_name)
            assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref)), (op_name, mask_name)


@pytest.mark.parametrize("seed", range(6))
def test_sweep_ignores_couplings_to_stopped_rows(seed):
    # a stopped row and the rows past each edge are identity rows v = +0.0, so
    # the coefficients coupling a row to them must not reach any bit of v
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 90))
    for op_name, (lower, diag, upper) in _random_operators(rng, n).items():
        rhs = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)  # no entry is exactly 0
        for mask_name, stopped in _oracle_masks(rng, n).items():
            if op_name == "stationary" and not stopped.any():
                continue  # singular
            above = np.concatenate(([True], stopped[:-1]))  # row j - 1 stopped, or j = 0
            below = np.concatenate((stopped[1:], [True]))  # row j + 1 stopped, or j = n - 1
            other_lower = np.where(above, rng.normal(size=n) * 1e3, lower)
            other_upper = np.where(below, rng.normal(size=n) * 1e3, upper)
            v = np.array(_sweep(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist(), stopped.tolist()))
            w = np.array(_sweep(other_lower.tolist(), diag.tolist(), other_upper.tolist(), rhs.tolist(), stopped.tolist()))
            assert np.array_equal(v.view(np.int64), w.view(np.int64)), (op_name, mask_name)
            assert not v[stopped].view(np.int64).any(), (op_name, mask_name)  # +0.0 is all zero bits


def test_policy_steps_match_the_lapack_reference(all_tables, monkeypatch):
    # every policy step of real solves, the stationary one included, settles
    # in as many iterations on the same stopped set as with LAPACK's solve
    seen = []
    policy_step = stopping_solver._policy_step

    def compared(rhs, lower, diag, upper, stopped, max_iter=100):
        out = policy_step(rhs, lower, diag, upper, stopped, max_iter)
        ref = _policy_step_dgtsv(rhs, lower, diag, upper, stopped, max_iter)
        assert out[2] == ref[2] and np.array_equal(out[1], ref[1])
        assert np.max(np.abs(out[0] - ref[0])) <= 1e-13 * max(1.0, float(np.max(np.abs(ref[0]))))
        seen.append(out[2])
        return out

    monkeypatch.setattr(stopping_solver, "_policy_step", compared)
    for name, c in (("bernoulli", 0.25), ("gaussian", 0.25), ("half_normal", 0.25), ("mixture", 0.04)):
        _solve(all_tables[name], c, n_t=24, n_x=61, T_max=2.0)
    assert len(seen) > 100 and max(seen) > 1
