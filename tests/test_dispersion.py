import math

import numpy as np
import pytest

import driftstop.dispersion as dispersion
from driftstop import (
    InversionError,
    PriorSpec,
    bernoulli_psi,
    build_quadrature,
    clamp_to_interior,
    invert_G,
    invertible_interval,
    pde_residuals,
    posterior_mean_var,
    psi,
    psi_grid,
)
from driftstop.cli import _resolve
from driftstop.dispersion import _invert_array
from driftstop.stopping_solver import solver_psi_grid


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_symmetric_center(bernoulli_table, mixture_table):
    for table in (bernoulli_table, mixture_table):
        for t in [0.0, 0.9, 4.0]:
            assert abs(invert_G(table, t, 0.0)) <= 1e-9


def test_invert_gaussian_closed_form(gaussian_table):
    # y = (x (1 + sigma^2 t) - m) / sigma^2
    y = invert_G(gaussian_table, 1.0, 1.0)
    assert y == pytest.approx(2.0, abs=1e-8)


def test_invert_bernoulli_tanh(bernoulli_table):
    y = invert_G(bernoulli_table, 0.8, 0.46211715726000974)
    assert y == pytest.approx(0.5, abs=1e-8)


def test_invert_meets_tolerance(halfnormal_table):
    xs = np.array([0.01, 0.5, 1.5, 3.0])
    for t in [0.0, 1.0]:
        ys = [invert_G(halfnormal_table, t, x, tol=1e-12) for x in xs]
        g, _ = posterior_mean_var(halfnormal_table, t, ys)
        assert np.max(np.abs(g - xs)) <= 1e-12


def test_invert_monotone_in_x(mixture_table):
    xs = np.linspace(-3.0, 3.0, 21)
    ys = [invert_G(mixture_table, 0.7, x) for x in xs]
    assert np.all(np.diff(ys) > 0.0)


def test_invert_rejects_bad_x(bernoulli_table):
    with pytest.raises(ValueError):
        invert_G(bernoulli_table, 1.0, 1.5)
    with pytest.raises(ValueError):
        invert_G(bernoulli_table, 1.0, 1.0)  # finite endpoint


@pytest.mark.parametrize("y0", [None, -50.0, 50.0], ids=["cold", "warm-50", "warm+50"])
@pytest.mark.parametrize("name", ["gaussian", "bernoulli"])
def test_invert_array_unbracketable_point_raises(all_tables, monkeypatch, name, y0):
    # x beyond the extreme node: G - x keeps one sign, so the expansion must
    # give up loudly, after a bounded number of kernel calls at finite y only
    table = all_tables[name]
    seen = []

    def finite_kernel(tab, t, y):
        assert np.all(np.isfinite(y))
        seen.append(1)
        return posterior_mean_var(tab, t, y)

    monkeypatch.setattr(dispersion, "posterior_mean_var", finite_kernel)
    for x in (table.nodes[-1] + 0.5, table.nodes[0] - 0.5):
        seen.clear()
        start = None if y0 is None else np.array([y0])
        with pytest.raises(InversionError, match="could not bracket"):
            _invert_array(table, 0.5, np.array([x]), 1e-10, y0=start)
        assert 0 < len(seen) <= 200


@pytest.mark.parametrize(
    "prior",
    [
        {"kind": "gaussian", "m": 0.0, "sigma2": 1.0},
        {"kind": "half_normal", "sigma2": 1.0},
        {"kind": "symmetric_gaussian_mixture", "m": 1.0, "sigma": 1.0},
        {"kind": "discrete_atoms", "atoms": [[-1.0, 0.3], [0.0, 0.4], [1.0, 0.3]]},
    ],
    ids=["gaussian", "half_normal", "mixture", "three_atoms"],
)
def test_psi_grid_kernel_call_budget(monkeypatch, prior):
    # Newton from the extrapolated warm start, with the returned H: at most
    # 2.5 kernel calls per row on the CLI default lattice
    table, _, config, *_ = _resolve({"prior": prior, "cost_c": 0.25}, None, None)
    calls = []

    def counting_kernel(tab, t, y):
        calls.append(1)
        return posterior_mean_var(tab, t, y)

    monkeypatch.setattr(dispersion, "posterior_mean_var", counting_kernel)
    grid = solver_psi_grid(table, config)
    assert len(calls) <= 2.5 * grid.t_nodes.size


def test_clamp_near_endpoint(bernoulli_table):
    x, moved = clamp_to_interior(bernoulli_table, 1.0 - 1e-15)
    assert moved and x < 1.0 - 1e-15
    x, moved = clamp_to_interior(bernoulli_table, 0.3)
    assert not moved and x == 0.3


def test_halfnormal_clamp_below_first_node(halfnormal_table):
    lo, hi = invertible_interval(halfnormal_table)
    x, moved = clamp_to_interior(halfnormal_table, lo / 2.0)  # inside support, below node range
    assert moved and x > lo


# ---------------------------------------------------------------------------
# dispersion values
# ---------------------------------------------------------------------------


def test_psi_bernoulli_formula_and_p_independence():
    # psi(t, x) = beta^2 - x^2, independent of both p and t
    xs = np.linspace(-0.9, 0.9, 7)
    vals = {}
    for p in (0.2, 0.5, 0.8):
        table = build_quadrature(PriorSpec.bernoulli(1.0, p))
        vals[p] = np.array([psi(table, 0.7, x) for x in xs])
        assert np.allclose(vals[p], 1.0 - xs**2, atol=1e-9)
    assert np.max(np.abs(vals[0.2] - vals[0.5])) <= 1e-8
    assert np.max(np.abs(vals[0.8] - vals[0.5])) <= 1e-8


def test_psi_gaussian_depends_only_on_time(gaussian_table):
    for x in [-2.0, 0.3, 1.7]:
        assert psi(gaussian_table, 1.0, x) == pytest.approx(0.5, abs=1e-9)


def test_psi_roundtrip_identity(all_tables):
    # psi(t, G(t, y)) = H(t, y) on a (t, y) lattice
    for table in all_tables.values():
        for t in [0.0, 0.6, 2.5]:
            for y in np.linspace(-2.0, 2.0, 5):
                g, h = posterior_mean_var(table, t, y)
                assert psi(table, t, float(g[0])) == pytest.approx(float(h[0]), abs=1e-8)


# ---------------------------------------------------------------------------
# psi grids
# ---------------------------------------------------------------------------


def test_psi_grid_bernoulli_matches_formula(bernoulli_table):
    g = psi_grid(bernoulli_table, np.linspace(0.0, 2.0, 9), np.linspace(-0.95, 0.95, 39))
    expect = 1.0 - g.x_nodes[None, :] ** 2
    assert np.max(np.abs(g.values - expect)) <= 1e-9


def test_psi_grid_gaussian_rows_constant(gaussian_table):
    g = psi_grid(gaussian_table, np.linspace(0.0, 2.0, 9), np.linspace(-4.0, 4.0, 17))
    assert np.max(g.values.max(axis=1) - g.values.min(axis=1)) <= 1e-10


def test_psi_grid_mixture_rows_decrease_in_abs_x(mixture_table):
    g = psi_grid(mixture_table, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 6.0, 25))
    assert np.all(np.diff(g.values, axis=1) <= 1e-10)


def test_psi_grid_time_monotone(all_tables):
    for table in all_tables.values():
        lo, hi = invertible_interval(table)
        width = hi - lo
        x = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 15)
        g = psi_grid(table, np.linspace(0.0, 3.0, 13), x)
        assert g.worst_time_monotonicity_violation() <= 1e-9
        assert np.all(g.values > 0.0)


def test_psi_grid_roundtrip_contract(mixture_table):
    # every warm-started row holds what a cold inversion to 1e-12 gives, within the grid's tol:
    # Psi moves by at most a fifth of the miss in x here (1.7e-12 at tol 1e-11, 1.3e-7 at 1e-6)
    g = psi_grid(mixture_table, np.linspace(0.0, 1.0, 5), np.linspace(-2.0, 2.0, 11), tol=1e-11)
    cold = [[psi(mixture_table, t, x, tol=1e-12) for x in g.x_nodes] for t in g.t_nodes]
    assert np.max(np.abs(g.values - cold)) <= 1e-11


def test_psi_grid_curvature_floor(all_tables):
    # central-difference curvature of the dispersion stays above -2
    for table in all_tables.values():
        lo, hi = invertible_interval(table)
        width = hi - lo
        x = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 41)
        g = psi_grid(table, np.linspace(0.1, 2.0, 5), x)
        dx = x[1] - x[0]
        d2 = (g.values[:, 2:] - 2.0 * g.values[:, 1:-1] + g.values[:, :-2]) / dx**2
        assert np.min(d2) >= -2.0 - 1e-6


def test_psi_grid_bounded_for_compact_support(bernoulli_table):
    g = psi_grid(bernoulli_table, np.linspace(0.0, 3.0, 7), np.linspace(-0.99, 0.99, 41))
    lo, hi = bernoulli_table.support_bounds
    assert np.max(g.values) <= (hi - lo) ** 2 / 4.0 + 1e-12


def test_stationary_psi_is_the_long_time_limit():
    table = build_quadrature(PriorSpec.discrete_atoms([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)]))
    g = psi_grid(table, [50.0], np.linspace(-0.99, 0.99, 41))
    assert np.max(np.abs(g.values[0] - g.stationary)) <= 1e-9


def test_stationary_psi_two_point_is_time_independent(bernoulli_table):
    g = psi_grid(bernoulli_table, [0.0], np.linspace(-0.95, 0.95, 39))
    expect = np.array([bernoulli_psi(1.0, x) for x in g.x_nodes])
    assert np.max(np.abs(g.stationary - expect)) <= 1e-15


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


def test_residuals_small_at_fine_step(gaussian_table):
    res = pde_residuals(gaussian_table, 1.0, 1.0, 1e-3)
    assert abs(res.burgers) <= 1e-6


def test_bernoulli_psi_residual_vanishes(bernoulli_table):
    # quadratic dispersion: the stencil is exact, only roundoff remains
    res = pde_residuals(bernoulli_table, 0.5, 0.3, 0.05)
    assert abs(res.psi_pde) <= 1e-9


def test_residual_convergence_order(all_tables):
    floor = 1e-11
    for table in all_tables.values():
        r1 = pde_residuals(table, 0.5, 0.37, 0.08)
        r2 = pde_residuals(table, 0.5, 0.37, 0.04)
        for a, b in zip(r1, r2):
            if abs(a) < floor and abs(b) < floor:
                continue
            assert math.log2(abs(a) / abs(b)) >= 1.8


def test_residual_stencil_guards(bernoulli_table):
    with pytest.raises(ValueError):
        pde_residuals(bernoulli_table, 0.05, 0.0, 0.1)  # t - h <= 0
    with pytest.raises(ValueError):
        pde_residuals(bernoulli_table, 1.0, 0.99, 0.05)  # x stencil leaves interval
