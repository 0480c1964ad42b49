import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr

import driftstop
from driftstop import (
    bernoulli_analytics,
    bernoulli_psi,
    bernoulli_solve,
    closed_form,
    gaussian_analytics,
    gaussian_tau_star,
    gaussian_value,
    halfnormal_H,
    halfnormal_analytics,
    halfnormal_monotone_check,
    mixture_H,
    mixture_analytics,
    mixture_boundary_thresholds,
    posterior_mean_var,
    widder_F,
)

# boundary of the unit two-point problem at c = 1/4, from the closed
# antiderivative of 1/(1-x^2)^2: x/(2(1-x^2)) + atanh(x)/2 = 4x
A_STAR = 0.9170406792291835


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------


def test_gaussian_prior_values_at_start():
    fa = gaussian_analytics(0.0, 1.0, 0.0, 0.0)
    assert fa == pytest.approx((1.0, 0.0, 1.0, 1.0))


def test_gaussian_mean_formula():
    fa = gaussian_analytics(1.0, 2.0, 1.0, 1.0)
    assert fa.G == pytest.approx(1.0)
    assert fa.H == pytest.approx(2.0 / 3.0)


def test_gaussian_quadrature_cross_check(gaussian_table):
    for t in np.linspace(0.0, 3.0, 7):
        for y in np.linspace(-3.0, 3.0, 7):
            fa = gaussian_analytics(0.0, 1.0, t, y)
            g, h = posterior_mean_var(gaussian_table, t, y)
            assert abs(float(g[0]) - fa.G) <= 1e-8
            assert abs(float(h[0]) - fa.H) <= 1e-8
            assert abs(widder_F(gaussian_table, t, y).value - fa.F) <= 1e-8 * max(1.0, fa.F)


@pytest.mark.parametrize(
    "sigma2,c,expect",
    [(1.0, 1.0, 0.0), (1.0, 0.25, 1.0), (2.0, 0.04, 4.5)],
)
def test_gaussian_tau_star(sigma2, c, expect):
    assert gaussian_tau_star(sigma2, c) == pytest.approx(expect)


def test_gaussian_value_examples():
    assert gaussian_value(1.0, 0.25, 2.0) == 0.0  # past tau*
    assert gaussian_value(1.0, 0.25, 0.0) == pytest.approx(-0.25, abs=1e-14)


def test_gaussian_value_matches_numeric_quadrature():
    sigma2, c = 1.7, 0.09
    for t in [0.0, 0.4, 1.1]:
        tau = gaussian_tau_star(sigma2, c)
        s_star = max(tau - t, 0.0)
        num, _ = quad(lambda s: c - (sigma2 / (1.0 + sigma2 * (t + s))) ** 2, 0.0, s_star)
        assert gaussian_value(sigma2, c, t) == pytest.approx(num, abs=1e-10)


def test_gaussian_value_above_variance_floor():
    for sigma2 in [0.5, 1.0, 4.0]:
        for c in [0.01, 0.25, 2.0]:
            assert gaussian_value(sigma2, c, 0.0) >= -sigma2


# ---------------------------------------------------------------------------
# bernoulli free boundary
# ---------------------------------------------------------------------------


def test_bernoulli_trivial_when_cost_dominates():
    sol = bernoulli_solve(1.0, 1.0)
    assert sol.boundary_a is None and sol.gamma is None
    assert sol.u(0.5) == 0.0


def test_bernoulli_boundary_against_antiderivative_oracle():
    sol = bernoulli_solve(1.0, 0.25, root_tol=1e-11)
    assert sol.gamma == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert sol.boundary_a == pytest.approx(A_STAR, abs=1e-8)
    assert abs(sol.Q(sol.boundary_a)) <= 1e-10


def test_bernoulli_q_unique_sign_change():
    sol = bernoulli_solve(1.0, 0.25)
    xs = np.arange(sol.gamma + 1e-3, 1.0 - 1e-3, 1e-3)
    signs = np.sign([sol.Q(x) for x in xs])
    changes = np.count_nonzero(np.diff(signs) != 0)
    assert changes == 1


def test_bernoulli_value_function_shape():
    sol = bernoulli_solve(1.0, 0.25, root_tol=1e-11)
    a = sol.boundary_a
    assert sol.u(a) == 0.0
    assert sol.u(0.97) == 0.0 and sol.u(-0.97) == 0.0
    for x in [0.0, 0.3, 0.7, a - 1e-3]:
        assert sol.u(x) < 0.0
        assert sol.u(x) == sol.u(-x)  # even
    # smooth fit: one-sided derivatives vanish at the boundary and at zero
    h = 1e-5
    du_a = (sol.u(a) - sol.u(a - h)) / h
    du_0 = (sol.u(h) - sol.u(0.0)) / h
    assert abs(du_a) <= 1e-4
    assert abs(du_0) <= 1e-4
    assert sol.u(0.0) == pytest.approx(-0.48100363769374027, abs=1e-9)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
def test_bernoulli_closed_forms_match_quadrature(beta):
    def integrand(xi, c):
        return (c - bernoulli_psi(beta, xi) ** 2) / bernoulli_psi(beta, xi) ** 2

    tight = dict(epsabs=1e-13, epsrel=1e-13, limit=500)
    for c in beta**4 * np.array([0.01, 0.25, 0.7]):
        sol = bernoulli_solve(beta, c)
        a = sol.boundary_a
        for x in beta * np.array([0.0, 0.1, 0.4, 0.7, 0.9, 0.99]):
            q_ref, _ = quad(integrand, 0.0, x, args=(c,), **tight)
            assert abs(sol.Q(x) - q_ref) <= 1e-12 * abs(q_ref)
        for x in np.linspace(0.0, a, 7)[:-1]:
            u_ref, _ = quad(
                lambda y: quad(integrand, y, a, args=(c,), **tight)[0],
                x,
                a,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=500,
            )
            assert abs(sol.u(x) + 2.0 * u_ref) <= 1e-9
            assert sol.u(-x) == sol.u(x)


def _cli_import_loads(module: str) -> bool:
    """Does a fresh interpreter that imports driftstop.cli load ``module`` or a submodule of it?"""
    src = Path(driftstop.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys, driftstop.cli; print(any(k == {module!r} or k.startswith({module + '.'!r}) for k in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_out_scipy():
    # the obstacle solver's tridiagonal sweep is in-house, so no command's
    # start-up pays for scipy's package init
    assert not _cli_import_loads("scipy")


def test_cli_import_leaves_out_scipy_integrate():
    assert not _cli_import_loads("scipy.integrate")


def test_cli_import_leaves_out_scipy_special():
    # the half-normal closed forms compute ln Phi with the standard library,
    # and the half-normal quadrature's tail cut is a constant
    assert not _cli_import_loads("scipy.special")


def test_bernoulli_analytics_match_quadrature(bernoulli_table):
    for t in [0.0, 1.3]:
        for y in np.linspace(-2.0, 2.0, 9):
            fa = bernoulli_analytics(1.0, 0.5, t, y)
            g, h = posterior_mean_var(bernoulli_table, t, y)
            assert abs(float(g[0]) - fa.G) <= 1e-12
            assert abs(float(h[0]) - fa.H) <= 1e-12
            assert abs(widder_F(bernoulli_table, t, y).value - fa.F) <= 1e-12 * max(1.0, fa.F)
    assert bernoulli_psi(1.0, 0.3) == pytest.approx(0.91)


# ---------------------------------------------------------------------------
# half-normal
# ---------------------------------------------------------------------------


def test_halfnormal_at_origin():
    assert halfnormal_H(1.0, 0.0, 0.0) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


def test_halfnormal_large_y_limit():
    for t in [0.0, 1.0, 3.0]:
        assert halfnormal_H(1.0, t, 50.0) == pytest.approx(1.0 / (1.0 + t), rel=1e-6)


def test_halfnormal_quadrature_cross_check(halfnormal_table):
    for t in np.linspace(0.0, 3.0, 7):
        for y in np.linspace(-2.0, 3.0, 7):
            fa = halfnormal_analytics(1.0, t, y)
            g, h = posterior_mean_var(halfnormal_table, t, y)
            assert abs(float(g[0]) - fa.G) <= 1e-6
            assert abs(float(h[0]) - fa.H) <= 1e-6
            assert abs(widder_F(halfnormal_table, t, y).value - fa.F) <= 1e-6 * max(1.0, fa.F)


def test_halfnormal_monotone_check():
    res = halfnormal_monotone_check(1.0, 0.5, np.linspace(-6.0, 6.0, 121))
    assert res.passed
    assert res.min_f >= 1.0 - 1e-9
    # f(0) = 4/pi
    res0 = halfnormal_monotone_check(1.0, 0.0, np.array([-1e-6, 0.0, 1e-6]))
    assert res0.min_f == pytest.approx(4.0 / math.pi, abs=1e-6)


def test_log_ndtr_matches_scipy():
    # both sides of the branch points at z = -5 and z = 0, out to where scipy
    # itself is 2.3e-13 off near z = 37
    below, above = np.nextafter(-5.0, -np.inf), np.nextafter(-5.0, 0.0)
    z_grid = np.concatenate(
        [
            -np.geomspace(1000.0, 5.5, 60),
            np.linspace(-5.5, 0.5, 121),
            [below, above, -1e-300, -5e-324, 5e-324, 1e-300],
            np.geomspace(0.6, 37.0, 60),
        ]
    )
    for z in z_grid:
        want = float(log_ndtr(z))
        assert abs(closed_form._log_ndtr(float(z)) - want) <= 5e-13 * abs(want), z


def test_halfnormal_records_match_scipy_formulas(monkeypatch):
    grid = [
        (sigma2, t, y)
        for sigma2 in (0.05, 0.5, 1.0, 4.0, 25.0)
        for t in (0.0, 0.3, 1.0, 4.0, 20.0)
        for y in np.linspace(-8.0, 40.0, 97)
    ]
    # z = sigma y / sqrt(1 + sigma2 t) >= -1, where H does not cancel
    grid = [(s2, t, y) for s2, t, y in grid if math.sqrt(s2) * y / math.sqrt(1.0 + s2 * t) >= -1.0]
    assert len(grid) > 1000
    records = [halfnormal_analytics(*point) for point in grid]
    monkeypatch.setattr(closed_form, "_log_ndtr", lambda z: float(log_ndtr(z)))
    for point, rec in zip(grid, records):
        want = halfnormal_analytics(*point)
        for got_v, want_v in zip(rec[:3], want[:3]):
            assert abs(got_v - want_v) <= 1e-13 * abs(want_v) or got_v == want_v == math.inf, point


def test_halfnormal_moments_below_minus_5_match_mpmath():
    # below z = -5, G = s g and H = s^2 g (h - g) from the continued fraction's
    # tails subtract no near-equal terms; s^2 (1 - z phi/Phi - (phi/Phi)^2)
    # was off by 1.7e-5 relative at z = -100 and negative at z = -1000
    mpmath.mp.dps = 60
    u = 2.0**-53  # unit round-off
    below = np.nextafter(-5.0, -np.inf)
    for z in [below, -5.5, -10.0, -100.0, -1000.0, -1e5, *-np.geomspace(5.5, 1e5, 60)]:
        rec = halfnormal_analytics(1.0, 0.0, float(z))  # sigma2 = 1, t = 0: s = 1 and z = y
        zm = mpmath.mpf(float(z))
        r = mpmath.npdf(zm) / mpmath.ncdf(zm)
        assert abs(rec.G / (zm + r) - 1) <= 2.0 * u, z
        assert abs(rec.H / (1 - zm * r - r * r) - 1) <= 4.0 * u, z


def test_halfnormal_f_limits():
    from driftstop.closed_form import _mills

    # f -> 1 from above as z -> -inf; grows like z^2 for large positive z
    z = -10.0
    f = (z + 2.0 * _mills(z)) * (z + _mills(z))
    assert 1.0 <= f <= 1.01
    z = 5.0
    f = (z + 2.0 * _mills(z)) * (z + _mills(z))
    assert f > 20.0


# ---------------------------------------------------------------------------
# symmetric gaussian mixture
# ---------------------------------------------------------------------------


def test_mixture_center_value_is_prior_variance():
    # H(0, 0) equals the prior variance sigma^2 + m^2
    assert mixture_H(1.0, 1.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)


def test_mixture_center_formula():
    for t in [0.0, 1.0, 4.0]:
        d = 1.0 + t
        assert mixture_H(1.0, 1.0, t, 0.0) == pytest.approx(1.0 / d + 1.0 / d**2, abs=1e-14)


def test_mixture_large_y_limit():
    for t in [0.0, 2.0]:
        d = 1.0 + t
        y = 40.0 * d  # my/(1+sigma^2 t) = 40
        assert mixture_H(1.0, 1.0, t, y) == pytest.approx(1.0 / d, rel=1e-9)


def test_mixture_H_even_and_decreasing():
    ys = np.linspace(0.0, 8.0, 33)
    vals = np.array([mixture_H(1.0, 1.0, 0.7, y) for y in ys])
    assert np.all(np.diff(vals) <= 0.0)
    for y in ys[1:5]:
        assert mixture_H(1.0, 1.0, 0.7, y) == mixture_H(1.0, 1.0, 0.7, -y)


def test_mixture_quadrature_cross_check(mixture_table):
    for t in np.linspace(0.0, 3.0, 7):
        for y in np.linspace(-4.0, 4.0, 9):
            fa = mixture_analytics(1.0, 1.0, t, y)
            g, h = posterior_mean_var(mixture_table, t, y)
            assert abs(float(g[0]) - fa.G) <= 1e-8
            assert abs(float(h[0]) - fa.H) <= 1e-8
            assert abs(widder_F(mixture_table, t, y).value - fa.F) <= 1e-8 * max(1.0, fa.F)


def test_mixture_thresholds():
    t_inf, t_zero = mixture_boundary_thresholds(1.0, 1.0, 0.04)
    assert t_inf == pytest.approx(4.0, abs=1e-12)
    assert t_zero == pytest.approx(2.5 * (0.6 + math.sqrt(1.8)), abs=1e-12)
    assert t_inf <= t_zero


def test_mixture_thresholds_degenerate_to_gaussian():
    t_inf, t_zero = mixture_boundary_thresholds(1e-6, 1.0, 0.04)
    assert t_zero - t_inf <= 1e-5
