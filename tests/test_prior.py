import math

import numpy as np
import pytest

from driftstop import (
    PriorError,
    PriorSpec,
    QuadratureTable,
    build_quadrature,
    check_integrability,
    heat_residual_F,
    posterior_expectation,
    posterior_mean_G,
    posterior_mean_var,
    posterior_measure,
    posterior_var_H,
    posterior_weights,
    prior_moments,
    widder_F,
)


# ---------------------------------------------------------------------------
# specs and quadrature construction
# ---------------------------------------------------------------------------


def test_discrete_atoms_pass_through_exactly():
    table = build_quadrature(PriorSpec.discrete_atoms([(1.0, 0.5), (-1.0, 0.5)]), n=999)
    assert np.array_equal(table.nodes, [-1.0, 1.0])
    assert np.array_equal(table.weights, [0.5, 0.5])


def test_gaussian_moment_matching():
    table = build_quadrature(PriorSpec.gaussian(0.0, 1.0), n=64)
    assert abs(table.mean()) <= 1e-10
    assert abs(table.variance() - 1.0) <= 1e-8


def test_half_normal_mean_matches_analytic():
    # analytic mean of |N(0, sigma^2)| is sigma * sqrt(2/pi)
    table = build_quadrature(PriorSpec.half_normal(1.0), n=128)
    assert abs(table.mean() - math.sqrt(2.0 / math.pi)) <= 1e-6


def test_mixture_moments():
    table = build_quadrature(PriorSpec.symmetric_gaussian_mixture(1.0, 1.0), n=128)
    mean, var = prior_moments(table)
    assert abs(mean) <= 1e-12
    assert abs(var - 2.0) <= 1e-8


def test_tabulated_density_becomes_midpoint_atoms():
    grid = np.linspace(-1.0, 1.0, 41)
    dens = 1.0 - 0.5 * np.abs(grid)
    table = build_quadrature(PriorSpec.tabulated_density(grid, dens), n=128)
    assert abs(table.weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(table.nodes) > 0)
    # symmetric triangularish density: mean 0
    assert abs(table.mean()) <= 1e-12


def test_one_point_priors_rejected():
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(0.5, 1.0)])
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(0.5, 0.5), (0.5, 0.5)])  # same point twice
    with pytest.raises(PriorError):
        build_quadrature(PriorSpec.bernoulli(1.0), n=1)


def test_bad_atom_weights_rejected():
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(-1.0, 0.6), (1.0, 0.6)])
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(-1.0, -0.5), (1.0, 1.5)])


def test_tabulated_validation():
    with pytest.raises(PriorError):
        PriorSpec.tabulated_density([0.0, 1.0], [1.0, 1.0])  # too few points
    with pytest.raises(PriorError):
        PriorSpec.tabulated_density([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])  # not increasing
    with pytest.raises(PriorError):
        PriorSpec.tabulated_density([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])  # negative density


def test_from_dict_names_missing_field():
    with pytest.raises(PriorError, match="sigma2"):
        PriorSpec.from_dict({"kind": "gaussian", "m": 0.0})
    with pytest.raises(PriorError, match="kind"):
        PriorSpec.from_dict({"m": 0.0})


def test_table_invariants_enforced():
    with pytest.raises(PriorError):
        QuadratureTable(np.array([0.0, 1.0]), np.array([0.5, 0.6]), (0.0, 1.0))
    with pytest.raises(PriorError):
        QuadratureTable(np.array([1.0, 0.0]), np.array([0.5, 0.5]), (0.0, 1.0))


# ---------------------------------------------------------------------------
# widder transform
# ---------------------------------------------------------------------------


def test_widder_total_mass_at_origin(all_tables):
    for table in all_tables.values():
        assert widder_F(table, 0.0, 0.0).value == pytest.approx(1.0, abs=1e-12)


def test_widder_bernoulli_two_term_sum(bernoulli_table):
    # cosh(0) * exp(-t/2) at t=2
    assert widder_F(bernoulli_table, 2.0, 0.0).value == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_widder_gaussian_closed_form(gaussian_table):
    assert widder_F(gaussian_table, 1.0, 0.0).value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


def test_widder_rejects_negative_time(bernoulli_table):
    with pytest.raises(ValueError):
        widder_F(bernoulli_table, -0.1, 0.0)


def test_widder_log_domain_stability(bernoulli_table):
    # the log value must stay finite even where the linear value under/overflows
    for t, y in [(1e6, 0.0), (1e6, 1e4), (1e6, -1e4), (0.0, 1e4)]:
        res = widder_F(bernoulli_table, t, y)
        assert math.isfinite(res.log_value)
        assert res.value > 0.0 or res.log_value < -700.0


# ---------------------------------------------------------------------------
# posterior mean / variance / expectations
# ---------------------------------------------------------------------------


def test_posterior_mean_symmetry(bernoulli_table):
    for t in [0.0, 0.5, 3.0]:
        assert posterior_mean_G(bernoulli_table, t, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_posterior_mean_gaussian_closed_form(gaussian_table):
    assert posterior_mean_G(gaussian_table, 1.0, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_posterior_mean_bernoulli_tanh(bernoulli_table):
    for t in [0.0, 1.7, 12.0]:
        assert posterior_mean_G(bernoulli_table, t, 0.5) == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_posterior_mean_starts_at_prior_mean(all_tables):
    for table in all_tables.values():
        assert abs(posterior_mean_G(table, 0.0, 0.0) - table.mean()) <= 1e-12


def test_posterior_mean_range_property(all_tables):
    # strict interior of the node interval; lattice kept where the posterior
    # is still floating-point distinguishable from an endpoint atom
    for table in all_tables.values():
        lo, hi = table.nodes[0], table.nodes[-1]
        for t in [0.0, 0.7, 4.0]:
            for y in np.linspace(-8, 8, 15):
                g = posterior_mean_G(table, t, y)
                assert lo < g < hi


def test_posterior_var_examples(bernoulli_table, gaussian_table, halfnormal_table):
    assert posterior_var_H(bernoulli_table, 2.3, 0.0) == pytest.approx(1.0, abs=1e-12)
    # y-independence of the Gaussian posterior variance, within node coverage
    for y in [-5.0, 0.0, 5.0]:
        assert posterior_var_H(gaussian_table, 3.0, y) == pytest.approx(0.25, abs=1e-8)
    assert posterior_var_H(halfnormal_table, 0.0, 0.0) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-10)


def test_posterior_var_positive(all_tables):
    for table in all_tables.values():
        for t in [0.0, 1.0, 5.0]:
            for y in np.linspace(-8, 8, 9):
                assert posterior_var_H(table, t, y) > 0.0


def test_posterior_expectation_normalization(all_tables):
    for table in all_tables.values():
        assert posterior_expectation(table, lambda u: 1.0, 1.3, 0.4) == pytest.approx(1.0, abs=1e-14)


def test_posterior_expectation_second_moment(gaussian_table):
    # E[X^2 | .] = H + G^2 = 0.5 at (t, y) = (1, 0)
    val = posterior_expectation(gaussian_table, lambda u: u * u, 1.0, 0.0)
    assert val == pytest.approx(0.5, abs=1e-8)


def test_posterior_expectation_identity_matches_mean_exactly(all_tables):
    for table in all_tables.values():
        for t, y in [(0.0, 0.0), (1.2, -0.7), (4.0, 2.0)]:
            assert posterior_expectation(table, lambda u: u, t, y) == posterior_mean_G(table, t, y)


def test_posterior_expectation_rejects_nonfinite_q(bernoulli_table):
    with pytest.raises(ValueError, match="non-finite"):
        posterior_expectation(bernoulli_table, lambda u: math.inf if u > 0 else u, 0.5, 0.0)


def test_posterior_rejects_nonfinite_observation_level(bernoulli_table):
    # a ValueError, not an assert, so the guard survives python -O
    with pytest.raises(ValueError, match="non-finite"):
        posterior_mean_var(bernoulli_table, 1.0, [0.0, math.nan])


def _centred_var_longdouble(table, t, y):
    u = table.nodes.astype(np.longdouble)[:, None]
    logits = table.log_weights.astype(np.longdouble)[:, None] + u * y - np.longdouble(t) / 2 * u * u
    w = np.exp(logits - logits.max(axis=0))
    w /= w.sum(axis=0)
    g = (w * u).sum(axis=0)
    return (w * (u - g) ** 2).sum(axis=0)


@pytest.mark.parametrize(
    "prior",
    [
        PriorSpec.gaussian(0.0, 1.0),
        PriorSpec.half_normal(1.0),
        PriorSpec.symmetric_gaussian_mixture(1.0, 1.0),
    ],
    ids=["gaussian", "half_normal", "mixture"],
)
def test_posterior_var_matches_extended_precision(prior):
    # the centred two-pass variance keeps absolute accuracy far into the
    # tails, where the posterior sits on an edge node and h is tiny
    table = build_quadrature(prior, n=128)
    y = np.linspace(-400.0, 400.0, 1601)
    for t in (0.0, 1.0, 8.0):
        _, h = posterior_mean_var(table, t, y)
        ref = _centred_var_longdouble(table, t, y.astype(np.longdouble))
        assert np.min(h) >= 0.0
        assert float(np.max(np.abs(h - ref))) <= 1e-13


# ---------------------------------------------------------------------------
# posterior measure
# ---------------------------------------------------------------------------


def test_posterior_measure_identity_at_origin(gaussian_table):
    post = posterior_measure(gaussian_table, 0.0, 0.0)
    assert np.allclose(post.weights, gaussian_table.weights, atol=1e-15)


def test_posterior_measure_balances_biased_coin():
    table = build_quadrature(PriorSpec.bernoulli(1.0, 0.3))
    y = 0.5 * math.log(7.0 / 3.0)
    post = posterior_measure(table, 0.0, y)
    assert np.allclose(post.weights, [0.5, 0.5], atol=1e-12)


def test_posterior_measure_composes_additively(mixture_table):
    one_step = posterior_measure(mixture_table, 1.5, 0.9)
    two_step = posterior_measure(posterior_measure(mixture_table, 1.0, 0.5), 0.5, 0.4)
    assert np.allclose(one_step.weights, two_step.weights, atol=1e-12)


def test_posterior_weights_normalized_on_lattice(all_tables):
    for table in all_tables.values():
        for t in [0.0, 0.5, 2.0, 10.0]:
            for y in np.linspace(-5, 5, 7):
                w = posterior_weights(table, t, y)
                assert abs(w.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# integrability and moments
# ---------------------------------------------------------------------------


def test_integrability_discrete_always_passes():
    res = check_integrability(PriorSpec.bernoulli(3.0), 100.0)
    assert res.passed


def test_integrability_gaussian_threshold():
    prior = PriorSpec.gaussian(0.0, 1.0)
    assert check_integrability(prior, 0.25).passed
    assert not check_integrability(prior, 0.75).passed


def test_integrability_half_normal_uses_underlying_variance():
    assert not check_integrability(PriorSpec.half_normal(2.0), 0.3).passed
    assert check_integrability(PriorSpec.half_normal(2.0), 0.2).passed


def test_integrability_tabulated_refinement_stability():
    grid = np.linspace(-2.0, 2.0, 201)
    dens = np.exp(-grid**2)
    assert check_integrability(PriorSpec.tabulated_density(grid, dens), 0.1).passed


def test_integrability_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        check_integrability(PriorSpec.gaussian(0.0, 1.0), 0.0)


def test_prior_moments_bernoulli():
    for beta, p in [(1.0, 0.5), (2.0, 0.3)]:
        table = build_quadrature(PriorSpec.bernoulli(beta, p))
        mean, var = prior_moments(table)
        assert mean == pytest.approx(beta * (2 * p - 1), abs=1e-14)
        assert var == pytest.approx(beta**2 * 4 * p * (1 - p), abs=1e-14)


def test_prior_moments_gaussian_shifted():
    table = build_quadrature(PriorSpec.gaussian(2.0, 3.0), n=64)
    mean, var = prior_moments(table)
    assert mean == pytest.approx(2.0, abs=1e-8)
    assert var == pytest.approx(3.0, abs=1e-8)


# ---------------------------------------------------------------------------
# backward heat equation for the normalizing integral
# ---------------------------------------------------------------------------


def test_heat_residual_second_order(all_tables):
    for table in all_tables.values():
        r1 = heat_residual_F(table, 0.5, 0.37, 0.08)
        r2 = heat_residual_F(table, 0.5, 0.37, 0.04)
        order = math.log2(abs(r1) / abs(r2))
        assert order >= 1.8
