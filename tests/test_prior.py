import json
import math
import tracemalloc

import numpy as np
import pytest

from driftstop import (
    PosteriorError,
    PriorError,
    PriorSpec,
    QuadratureTable,
    build_quadrature,
    heat_residual_F,
    posterior_mean_var,
    widder_F,
)
from driftstop import prior as prior_module
from driftstop.cli import CONFIG_KEYS
from driftstop.prior import MAX_NODES, _TAIL_MASS, _TAIL_Z, _band_cut, _merge_duplicate_nodes, _tilt, _weight_matrix

EPS = np.finfo(float).eps


def _full_weights(table, t, y):
    """The kernel's band weights, normalised per column and padded to every node,
    after checking each node outside the band lies more than ``_band_cut`` below
    its column's largest."""
    band, (w, _) = _weight_matrix(table, t, y)
    w = w / w.sum(axis=0)
    logits = np.multiply.outer(table.nodes, y) + _tilt(table, t)[:, None]
    outside = np.ones(table.n, dtype=bool)
    outside[band] = False
    assert np.all(logits[outside] - logits.max(axis=0) < -_band_cut(table))
    full = np.zeros((table.n, y.size))
    full[band] = w
    return full


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


def test_half_normal_tail_cut_is_erfcinv_of_the_tail_mass():
    # the constant stands in for scipy.special.erfcinv, bit for bit
    from scipy.special import erfcinv

    assert _TAIL_Z == erfcinv(_TAIL_MASS) and _TAIL_Z.hex() == float(erfcinv(1e-26)).hex()


def test_mixture_moments():
    table = build_quadrature(PriorSpec.symmetric_gaussian_mixture(1.0, 1.0), n=128)
    assert abs(table.mean()) <= 1e-12
    assert abs(table.variance() - 2.0) <= 1e-8


def test_tabulated_density_becomes_midpoint_atoms():
    grid = np.linspace(-1.0, 1.0, 41)
    dens = 1.0 - 0.5 * np.abs(grid)
    table = build_quadrature(PriorSpec.tabulated_density(grid, dens), n=128)
    assert abs(table.weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(table.nodes) > 0)
    # symmetric triangularish density: mean 0
    assert abs(table.mean()) <= 1e-12


def test_tabulated_density_scale_does_not_matter():
    # only a density's shape counts: it is scaled by a power of two before any cell mass, so
    # 1e308 everywhere builds the uniform table, and 1e200 on a wide grid keeps a finite second moment
    uniform = build_quadrature(PriorSpec.tabulated_density([0.0, 1.0, 2.0], [1.0] * 3))
    huge = build_quadrature(PriorSpec.tabulated_density([0.0, 1.0, 2.0], [1e308] * 3))
    assert np.array_equal(huge.nodes, uniform.nodes)
    np.testing.assert_allclose(huge.weights, uniform.weights, rtol=1e-15, atol=0.0)
    wide = build_quadrature(PriorSpec.tabulated_density([0.0, 1e60, 2e60], [1e200] * 3))
    assert wide.mean() == pytest.approx(1e60, rel=1e-12)
    assert wide.variance() == pytest.approx(1e120 / 3.0, rel=1e-3)
    # the scale is exact: a power of two times the density leaves every bit of the table
    grid = np.linspace(-1.0, 1.0, 41)
    dens = 1.0 - 0.5 * np.abs(grid) + 0.1 * grid
    base = build_quadrature(PriorSpec.tabulated_density(grid, dens), n=64)
    for k in (-900, 3, 900):
        moved = build_quadrature(PriorSpec.tabulated_density(grid, np.ldexp(dens, k)), n=64)
        assert moved.nodes.tobytes() == base.nodes.tobytes() and moved.weights.tobytes() == base.weights.tobytes()


def test_each_family_states_its_support_and_exact_moments():
    # a parametric family's table must match the family's exact mean and
    # variance; a tabulated density's moments are its table's own
    want = {
        "discrete_atoms": (-1.0, 1.0),
        "gaussian": (-math.inf, math.inf),
        "symmetric_gaussian_mixture": (-math.inf, math.inf),
        "half_normal": (0.0, math.inf),
        "tabulated_density": (0.0, 2.0),
    }
    for kind, fields in _PRIOR_FIELDS.items():
        assert build_quadrature(PriorSpec(kind=kind, **fields)).support_bounds == want[kind]
    with pytest.raises(PriorError, match=r"^table mean 0\.79623\d+ misses analytic mean 0\.7978845608028654 "):
        build_quadrature(PriorSpec.half_normal(1.0), n=8)


@pytest.mark.parametrize(
    "spec, words",
    [
        (
            lambda: PriorSpec.tabulated_density([0.0, 1e200, 2e200], [1.0, 1.0, 1.0]),
            r"^prior field 'grid' of kind 'tabulated_density': its second moment overflows a float$",
        ),
        (
            lambda: build_quadrature(PriorSpec.half_normal(1e-320)),
            r"^the 128-node quadrature of prior \{'kind': 'half_normal', 'sigma2': 1e-320\} has 128 non-finite weights$",
        ),
        (
            lambda: build_quadrature(PriorSpec.gaussian(1e20, 1.0)),
            r"^the 128 quadrature nodes of prior \{'kind': 'gaussian', 'm': 1e\+20, 'sigma2': 1\.0\} round onto one float$",
        ),
    ],
    ids=["grid-second-moment", "half-normal-density-scale", "gaussian-nodes-on-one-float"],
)
def test_prior_a_float_table_cannot_hold_is_refused_by_name(spec, words):
    # these used to end in numpy's "overflow encountered in square", in its
    # "invalid value encountered in divide" as the tail divided inf by inf, and
    # in a table's "needs at least two nodes", which named no field
    with pytest.raises(PriorError, match=words):
        spec()


def test_nodes_that_merge_onto_two_floats_are_kept():
    # at an offset of 1e20 every node of a mixture component rounds onto +-1e20:
    # two nodes of weight 1/2 each, the exact law to float precision
    table = build_quadrature(PriorSpec.symmetric_gaussian_mixture(1e20, 1.0))
    assert table.nodes.tolist() == [-1e20, 1e20] and table.weights.tolist() == [0.5, 0.5]


def test_one_point_priors_rejected():
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(0.5, 1.0)])
    with pytest.raises(PriorError):
        PriorSpec.discrete_atoms([(0.5, 0.5), (0.5, 0.5)])  # same point twice
    with pytest.raises(PriorError):
        build_quadrature(PriorSpec.bernoulli(1.0), n=1)


@pytest.mark.parametrize(
    "prior",
    [PriorSpec.gaussian(0.0, 1.0), PriorSpec.symmetric_gaussian_mixture(1.0, 1.0), PriorSpec.half_normal(1.0)],
    ids=["gaussian", "mixture", "half_normal"],
)
def test_too_many_nodes_refused_before_any_gauss_rule(prior, monkeypatch):
    # numpy builds a Gauss rule of n nodes from an n x n matrix, so the count
    # is refused first; the CLI's quadrature_n bound is the same constant
    def no_rule(n):
        raise AssertionError(f"a Gauss rule of {n} nodes was built")

    monkeypatch.setattr(prior_module, "hermgauss", no_rule)
    monkeypatch.setattr(prior_module, "leggauss", no_rule)
    for n in (MAX_NODES + 1, 10**8):
        with pytest.raises(PriorError, match=f"node count n must be an integer from 2 to 1024, got {n}"):
            build_quadrature(prior, n=n)
    assert ("<=", MAX_NODES) in CONFIG_KEYS[None]["quadrature_n"].bounds


def test_repeated_atoms_merge_into_one_node():
    table = build_quadrature(PriorSpec.discrete_atoms([(0.5, 0.3), (-1.0, 0.5), (0.5, 0.2)]))
    assert table.nodes.tolist() == [-1.0, 0.5]
    assert table.weights.tolist() == [0.5, 0.5]
    # against the running sum over sorted nodes: a node's copies after the
    # first are summed pairwise before they are added to it, so a pair keeps
    # the running sum's bits and more copies stay within an ulp per copy
    rng = np.random.default_rng(8)
    nodes = np.sort(rng.integers(0, 40, 100)).astype(float)
    weights = rng.uniform(0.0, 1.0, nodes.size)
    want_n, want_w = [], []
    for u, w in zip(nodes.tolist(), weights.tolist()):
        if want_n and u == want_n[-1]:
            want_w[-1] += w
        else:
            want_n.append(u)
            want_w.append(w)
    got_n, got_w = _merge_duplicate_nodes(nodes, weights)
    copies = np.unique(nodes, return_counts=True)[1]
    assert got_n.tolist() == want_n and np.array_equal(got_w[copies <= 2], np.array(want_w)[copies <= 2])
    assert np.all(np.abs(got_w - want_w) <= copies * EPS * np.array(want_w))
    assert copies.max() > 4 and np.sum(copies == 2) > 5


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


_PRIOR_FIELDS = {
    "discrete_atoms": {"atoms": ((-1.0, 0.5), (1.0, 0.5))},
    "gaussian": {"m": 0.0, "sigma2": 1.0},
    "symmetric_gaussian_mixture": {"m": 1.0, "sigma": 1.0},
    "half_normal": {"sigma2": 1.0},
    "tabulated_density": {"grid": (0.0, 1.0, 2.0), "density_values": (1.0, 1.0, 1.0)},
}
_NON_FINITE = [math.inf, -math.inf, math.nan]
_BAD_FIELDS = [
    *[
        (kind, name, value)
        for kind, fields in _PRIOR_FIELDS.items()
        for name, good in fields.items()
        if isinstance(good, float)
        for value in _NON_FINITE
    ],
    *[("discrete_atoms", "atoms", ((-1.0, 0.5), (value, 0.5))) for value in _NON_FINITE],
    *[("discrete_atoms", "atoms", ((-1.0, value), (1.0, 0.5))) for value in _NON_FINITE],
    *[("tabulated_density", "grid", (0.0, 1.0, value)) for value in _NON_FINITE],
    *[("tabulated_density", "density_values", (1.0, value, 1.0)) for value in _NON_FINITE],
]


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, fields in _PRIOR_FIELDS.items() for name in fields])
def test_constructor_names_a_missing_field(kind, name):
    fields = {k: v for k, v in _PRIOR_FIELDS[kind].items() if k != name}
    with pytest.raises(PriorError, match=f"^prior of kind {kind!r} is missing field {name!r}$"):
        PriorSpec(kind=kind, **fields)


@pytest.mark.parametrize("kind, name, bad", _BAD_FIELDS)
def test_constructor_names_a_non_finite_field(kind, name, bad):
    # without the check, half_normal(inf) or an infinite grid point ended in a
    # numpy RuntimeWarning or a misleading message from the table or its moments
    fields = _PRIOR_FIELDS[kind] | {name: bad}
    with pytest.raises(PriorError, match=f"^prior field {name!r} of kind {kind!r} must hold finite numbers"):
        getattr(PriorSpec, kind)(**fields)
    PriorSpec(kind=kind, **_PRIOR_FIELDS[kind])  # the good fields pass


def test_copies_of_an_atom_merge_in_the_order_given():
    # the nodes are sorted stably, so three copies of 0.5 sum as 0.1 + (0.15 + 0.2),
    # whatever the machine's unstable sort would order them by
    atoms = [(0.5, 0.1), (-1.0, 0.2), (0.5, 0.15), (2.0, 0.05), (0.5, 0.2), (-1.0, 0.3)]
    table = build_quadrature(PriorSpec.discrete_atoms(atoms))
    merged = [0.2 + 0.3, 0.1 + (0.15 + 0.2), 0.05]
    assert merged[1] != 0.15 + (0.1 + 0.2)  # an order that would show
    assert table.nodes.tolist() == [-1.0, 0.5, 2.0]
    assert table.weights.tolist() == (np.array(merged) / np.sum(merged)).tolist()


def test_to_dict_lists_every_field_of_its_kind():
    for kind, fields in _PRIOR_FIELDS.items():
        doc = PriorSpec(kind=kind, **fields).to_dict()
        assert doc == {"kind": kind, **json.loads(json.dumps(fields))}
        assert list(doc) == ["kind", *fields]
        assert PriorSpec.from_dict(doc) == PriorSpec(kind=kind, **fields)


def test_table_refuses_nonfinite_nodes_or_weights():
    # NaN passes every comparison the other invariants make
    with pytest.raises(PriorError, match="1 non-finite nodes and 0 non-finite weights"):
        QuadratureTable(np.array([0.0, np.inf]), np.array([0.5, 0.5]), (0.0, np.inf))
    with pytest.raises(PriorError, match="0 non-finite nodes and 2 non-finite weights"):
        QuadratureTable(np.array([0.0, 1.0]), np.array([np.nan, np.nan]), (0.0, 1.0))


def test_table_invariants_enforced():
    with pytest.raises(PriorError):
        QuadratureTable(np.array([0.0, 1.0]), np.array([0.5, 0.6]), (0.0, 1.0))
    with pytest.raises(PriorError):
        QuadratureTable(np.array([1.0, 0.0]), np.array([0.5, 0.5]), (0.0, 1.0))


def test_table_log_weights_are_derived_not_passed():
    # the kernel reads log_weights and mean()/variance() read weights, so the
    # two must not be able to disagree
    with pytest.raises(TypeError):
        QuadratureTable(np.array([0.0, 1.0]), np.array([0.5, 0.5]), (0.0, 1.0), log_weights=np.zeros(2))
    table = QuadratureTable(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.0, 0.75]), (0.0, 2.0))
    assert np.array_equal(table.log_weights, [math.log(0.25), -math.inf, math.log(0.75)])


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
# posterior mean and variance
# ---------------------------------------------------------------------------


def test_posterior_mean_symmetry(bernoulli_table):
    for t in [0.0, 0.5, 3.0]:
        g, _ = posterior_mean_var(bernoulli_table, t, 0.0)
        assert g[0] == pytest.approx(0.0, abs=1e-15)


def test_posterior_mean_gaussian_closed_form(gaussian_table):
    g, _ = posterior_mean_var(gaussian_table, 1.0, 2.0)
    assert g[0] == pytest.approx(1.0, abs=1e-10)


def test_posterior_mean_bernoulli_tanh(bernoulli_table):
    for t in [0.0, 1.7, 12.0]:
        g, _ = posterior_mean_var(bernoulli_table, t, 0.5)
        assert g[0] == pytest.approx(math.tanh(0.5), abs=1e-12)


def test_posterior_mean_starts_at_prior_mean(all_tables):
    for table in all_tables.values():
        g, _ = posterior_mean_var(table, 0.0, 0.0)
        assert abs(g[0] - table.mean()) <= 1e-12


def test_posterior_mean_range_property(all_tables):
    # strict interior of the node interval; lattice kept where the posterior
    # is still floating-point distinguishable from an endpoint atom
    for table in all_tables.values():
        lo, hi = table.nodes[0], table.nodes[-1]
        for t in [0.0, 0.7, 4.0]:
            g, _ = posterior_mean_var(table, t, np.linspace(-8, 8, 15))
            assert np.all((lo < g) & (g < hi))


def test_posterior_var_examples(bernoulli_table, gaussian_table, halfnormal_table):
    _, h = posterior_mean_var(bernoulli_table, 2.3, 0.0)
    assert h[0] == pytest.approx(1.0, abs=1e-12)
    # y-independence of the Gaussian posterior variance, within node coverage
    _, h = posterior_mean_var(gaussian_table, 3.0, [-5.0, 0.0, 5.0])
    assert h == pytest.approx([0.25, 0.25, 0.25], abs=1e-8)
    _, h = posterior_mean_var(halfnormal_table, 0.0, 0.0)
    assert h[0] == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-10)


def test_posterior_var_positive(all_tables):
    for table in all_tables.values():
        for t in [0.0, 1.0, 5.0]:
            _, h = posterior_mean_var(table, t, np.linspace(-8, 8, 9))
            assert np.all(h > 0.0)


def test_posterior_expectation_normalization(all_tables):
    # E[1 | t, y] = 1 once divided by the column sum S0: the kernel leaves the
    # weights max-shifted, so the largest is exactly 1, S0 lies in [1, band
    # width], and S0 times e^(largest logit) is the normalizing integral F(t, y)
    t, y = 1.3, 0.4
    for table in all_tables.values():
        band, (w, _) = _weight_matrix(table, t, np.array([y]))
        logits = table.nodes * y + _tilt(table, t)
        assert w.max() == 1.0 and w.argmax() == logits.argmax() - band.start
        s0 = float(w.sum())
        assert 1.0 <= s0 <= band.stop - band.start
        assert math.log(s0) + logits.max() == pytest.approx(widder_F(table, t, y).log_value, rel=1e-14, abs=1e-14)


def test_posterior_expectation_second_moment(gaussian_table):
    # E[X^2 | .] = H + G^2 = 0.5 at (t, y) = (1, 0)
    g, h = posterior_mean_var(gaussian_table, 1.0, 0.0)
    assert h[0] + g[0] ** 2 == pytest.approx(0.5, abs=1e-8)


def test_posterior_rejects_nonfinite_observation_level(bernoulli_table):
    # a numerical error, not an assert, so the guard survives python -O
    with pytest.raises(PosteriorError, match="non-finite"):
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
# posterior weights: the exponential tilt behind the kernel
# ---------------------------------------------------------------------------


def test_posterior_measure_identity_at_origin(gaussian_table):
    w = _full_weights(gaussian_table, 0.0, np.array([0.0]))
    assert np.allclose(w[:, 0], gaussian_table.weights, atol=1e-15)


def test_posterior_measure_balances_biased_coin():
    table = build_quadrature(PriorSpec.bernoulli(1.0, 0.3))
    y = 0.5 * math.log(7.0 / 3.0)
    w = _full_weights(table, 0.0, np.array([y]))
    assert np.allclose(w[:, 0], [0.5, 0.5], atol=1e-12)


def test_posterior_measure_composes_additively(mixture_table):
    # observing (1.0, 0.5) and then a further (0.5, 0.4) is observing (1.5, 0.9)
    one_step = _full_weights(mixture_table, 1.5, np.array([0.9]))
    first = _full_weights(mixture_table, 1.0, np.array([0.5]))
    posterior = QuadratureTable(mixture_table.nodes, first[:, 0], mixture_table.support_bounds)
    two_step = _full_weights(posterior, 0.5, np.array([0.4]))
    assert np.allclose(one_step, two_step, atol=1e-12)


def test_posterior_weights_normalized_on_lattice(all_tables):
    # every column's largest weight is exactly 1, at its largest logit, and the
    # column sums to between 1 and the band width
    y = np.linspace(-5, 5, 7)
    for table in all_tables.values():
        for t in [0.0, 0.5, 2.0, 10.0]:
            band, (w, _) = _weight_matrix(table, t, y)
            logits = np.multiply.outer(table.nodes, y) + _tilt(table, t)[:, None]
            assert np.all(w.max(axis=0) == 1.0)
            assert np.array_equal(w.argmax(axis=0) + band.start, logits.argmax(axis=0))
            s0 = w.sum(axis=0)
            assert np.all((s0 >= 1.0) & (s0 <= band.stop - band.start))


# ---------------------------------------------------------------------------
# the node band: the kernel runs only on the nodes a call can reach
# ---------------------------------------------------------------------------


BAND_PRIORS = {
    "mixture": (PriorSpec.symmetric_gaussian_mixture(1.0, 1.0), 128),
    "half_normal": (PriorSpec.half_normal(1.0), 128),
    # the cells (-1, 0) and (0, 1) carry no mass, so the table has gaps
    "tabulated_gap": (PriorSpec.tabulated_density([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0, 2.0, 0.0]), 16),
    "wide_atoms": (PriorSpec.discrete_atoms([(-50.0, 0.2), (-1.0, 0.2), (0.0, 0.2), (2.0, 0.2), (60.0, 0.2)]), 128),
}


def _random_calls(seed, count=200):
    """(t, y) pairs spanning early and late times and narrow to very wide y spreads."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = float(rng.uniform(0.0, 10.0) * rng.integers(0, 2))
        y = rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 2.5), int(rng.integers(1, 60)))
        yield t, y + rng.normal() * 10.0 ** rng.uniform(-1.0, 2.0)


@pytest.mark.parametrize("name", sorted(BAND_PRIORS))
def test_band_holds_every_node_a_column_keeps(name):
    prior, n = BAND_PRIORS[name]
    table = build_quadrature(prior, n=n)
    cut = _band_cut(table)
    for t, y in _random_calls(1):
        band, (w, _) = _weight_matrix(table, t, y)
        logits = np.multiply.outer(table.nodes, y) + _tilt(table, t)[:, None]
        kept = np.flatnonzero((logits >= logits.max(axis=0) - cut).any(axis=1))
        assert band.start <= kept[0] and kept[-1] < band.stop
        # and it is no wider: it spans the kept nodes of the two extreme columns
        at_lo, at_hi = logits[:, np.argmin(y)], logits[:, np.argmax(y)]
        assert band.start == np.flatnonzero(at_lo >= at_lo.max() - cut)[0]
        assert band.stop == np.flatnonzero(at_hi >= at_hi.max() - cut)[-1] + 1
        assert w.shape == (band.stop - band.start, y.size)


@pytest.mark.parametrize("name", sorted(BAND_PRIORS))
def test_band_matches_full_table_extended_precision(name):
    # the reference shares the kernel's float64 logits and does the rest in
    # long double on every node: the dropped weights move g and h by under
    # 1e-15, and the kernel's own round-off is a few ulps of E|X| and of h
    prior, n = BAND_PRIORS[name]
    table = build_quadrature(prior, n=n)
    u = table.nodes.astype(np.longdouble)[:, None]
    for t, y in _random_calls(2):
        g, h = posterior_mean_var(table, t, y)
        logits = (np.multiply.outer(table.nodes, y) + _tilt(table, t)[:, None]).astype(np.longdouble)
        w = np.exp(logits - logits.max(axis=0))
        w /= w.sum(axis=0)
        g_ref = (w * u).sum(axis=0)
        h_ref = (w * (u - g_ref) ** 2).sum(axis=0)
        assert np.all(np.abs(g - g_ref) <= 1e-15 + 16.0 * EPS * (w * abs(u)).sum(axis=0))
        assert np.all(np.abs(h - h_ref) <= 1e-15 + 16.0 * EPS * h_ref)


@pytest.mark.parametrize("name", ["coin", "wide_atoms"])
def test_late_time_discrete_posterior_keeps_relative_accuracy(name):
    # late on a discrete prior the posterior sits on one atom and h falls to
    # 1e-135, where an absolute term would hide any error; the reference shares
    # the float64 logits, so what is left is the kernel's float64 max shift,
    # which rounds a logit gap of a few hundred by up to 128 eps (the worst
    # column here is off by 64.5 eps)
    prior = PriorSpec.bernoulli(1.0, 0.3) if name == "coin" else BAND_PRIORS[name][0]
    table = build_quadrature(prior)
    u = table.nodes.astype(np.longdouble)[:, None]
    smallest = math.inf
    for t in (0.5, 5.0, 20.0, 50.0):
        y = np.linspace(-(3.0 * t + 5.0), 3.0 * t + 5.0, 2001)
        g, h = posterior_mean_var(table, t, y)
        logits = (np.multiply.outer(table.nodes, y) + _tilt(table, t)[:, None]).astype(np.longdouble)
        w = np.exp(logits - logits.max(axis=0))
        w /= w.sum(axis=0)
        g_ref = (w * u).sum(axis=0)
        h_ref = (w * (u - g_ref) ** 2).sum(axis=0)
        assert np.all(np.abs(g - g_ref) <= 16.0 * EPS * (w * abs(u)).sum(axis=0))
        assert np.all(np.abs(h - h_ref) <= 128.0 * EPS * h_ref)
        smallest = min(smallest, float(h_ref.min()))
    assert smallest < 1e-90


def test_full_band_is_bit_identical_to_unbanded_arithmetic(bernoulli_table):
    # on atoms +-1 the two logits differ by 2|y|, far inside the cut for |y| <= 15
    rng = np.random.default_rng(3)
    u = bernoulli_table.nodes
    for _ in range(200):
        t = float(rng.uniform(0.0, 20.0))
        y = rng.uniform(-15.0, 15.0, int(rng.integers(1, 300)))
        band, _ = _weight_matrix(bernoulli_table, t, y)
        assert band == slice(0, 2)
        w = np.multiply.outer(u, y)
        w += (bernoulli_table.log_weights - 0.5 * t * u * u)[:, None]
        w -= w.max(axis=0)
        np.exp(w, out=w)
        s0 = w.sum(axis=0)
        g_full = (u @ w) / s0
        d = u[:, None] - g_full
        g, h = posterior_mean_var(bernoulli_table, t, y)
        assert np.array_equal(g, g_full)
        assert np.array_equal(h, np.einsum("ij,ij,ij->j", w, d, d) / s0)


def _random_rows(seed, count=50):
    """Observation blocks of one to four rows, each row at its own time (rows may share one)."""
    rng = np.random.default_rng(seed)
    for t, y in _random_calls(seed, count):
        times = rng.choice([t, t + 0.5, 2.0 * t + 1.0], (int(rng.integers(1, 5)), 1))
        yield times, y + rng.normal(0.0, 10.0 ** rng.uniform(-1.0, 1.0), (times.size, y.size))


@pytest.mark.parametrize("name", sorted(BAND_PRIORS))
def test_array_time_band_holds_every_node_a_column_keeps(name):
    prior, n = BAND_PRIORS[name]
    table = build_quadrature(prior, n=n)
    cut = _band_cut(table)
    for t, y in _random_rows(4):
        band, (w, _) = _weight_matrix(table, t, y)
        u = table.nodes[:, None, None]  # node x row x column
        logits = u * y + (table.log_weights[:, None, None] - 0.5 * t * u**2)
        kept = np.flatnonzero((logits >= logits.max(axis=0) - cut).any(axis=(1, 2)))
        assert band == slice(kept[0], kept[-1] + 1)
        assert w.shape == (band.stop - band.start, y.size)


@pytest.mark.parametrize(
    "prior", [PriorSpec.bernoulli(1.0, 0.3), PriorSpec.discrete_atoms([(-1.5, 0.2), (0.0, 0.5), (2.0, 0.3)])]
)
def test_array_times_match_scalar_calls_bit_for_bit(prior):
    # where every call's band is the whole table, a call with one time per row
    # gives each row the bits that a call at its time gives it, as the walk's
    # calls over several steps must, down to rows of one column
    table = build_quadrature(prior)
    rng = np.random.default_rng(5)
    for _ in range(100):
        times = rng.uniform(0.0, 8.0, (int(rng.integers(1, 6)), 1))
        y = rng.uniform(-4.0, 4.0, (times.size, int(rng.integers(1, 60))))
        assert _weight_matrix(table, times, y)[0] == slice(0, table.n)
        g, h = posterior_mean_var(table, times, y)
        assert g.shape == h.shape == y.shape
        for tk, yk, gk, hk in zip(times[:, 0].tolist(), y, g, h):
            assert _weight_matrix(table, tk, yk)[0] == slice(0, table.n)
            g1, h1 = posterior_mean_var(table, tk, yk)
            assert np.array_equal(gk, g1) and np.array_equal(hk, h1)


@pytest.mark.parametrize(
    "prior",
    [PriorSpec.gaussian(0.0, 1.0), PriorSpec.half_normal(1.0), PriorSpec.symmetric_gaussian_mixture(1.0, 1.0)],
)
def test_scalar_time_is_one_run_of_array_times(prior):
    # a scalar t is one time for every row: on 128-node tables a call with the
    # time given once per row gets the same band and the same bits, for a 1-d
    # y as one row and for a block of two rows, and over 80 of the 200 calls
    # get a band narrower than the table
    table = build_quadrature(prior, n=128)
    narrow = 0
    for t, y in _random_calls(6):
        band, (w, _) = _weight_matrix(table, t, y)
        band_row, (w_row, _) = _weight_matrix(table, np.full((1, 1), t), y[None])
        assert band_row == band and np.array_equal(w_row, w)
        g, h = posterior_mean_var(table, t, y)
        g_row, h_row = posterior_mean_var(table, np.full((1, 1), t), y[None])
        assert np.array_equal(g_row, g[None]) and np.array_equal(h_row, h[None])
        block = np.stack([y, -y])
        assert _weight_matrix(table, np.full((2, 1), t), block)[0] == _weight_matrix(table, t, block)[0]
        g_rows, h_rows = posterior_mean_var(table, np.full((2, 1), t), block)
        g_block, h_block = posterior_mean_var(table, t, block)
        assert np.array_equal(g_rows, g_block) and np.array_equal(h_rows, h_block)
        narrow += band != slice(0, table.n)
    assert narrow >= 80


LOGIT_PRIORS = {
    **BAND_PRIORS,
    "gaussian": (PriorSpec.gaussian(0.0, 1.0), 128),
    "three_atoms": (PriorSpec.discrete_atoms([(-1.5, 0.2), (0.0, 0.5), (2.0, 0.3)]), 128),
}


def _elementwise_weights(table, t, y, band):
    """exp(u y + tilt - column max) on ``band``, a product and a sum per logit, node x (row x column)."""
    y = y.reshape(-1, y.shape[-1])
    tilt = _tilt(table, np.array(t, ndmin=2))[:, band]  # row x node
    logits = np.multiply.outer(table.nodes[band], y) + tilt.T[:, :, None]
    return np.exp(logits - logits.max(axis=0)).reshape(logits.shape[0], -1)


@pytest.mark.parametrize("name", sorted(LOGIT_PRIORS))
def test_weight_matrix_rounds_each_logit_as_a_product_and_a_sum(name):
    # the kernel's one matrix product [u, tilt] x [y, 1] gives every logit the
    # bits of u * y and then + tilt, with one time for every row or one per
    # row; the three atoms' band is their whole table early on.  A kernel
    # call of one column gets them too: it is one of two equal columns
    prior, n = LOGIT_PRIORS[name]
    table = build_quadrature(prior, n=n)
    rng = np.random.default_rng(9)
    whole = 0
    for t, y in _random_calls(7, 100):
        rows = int(rng.integers(1, 4))
        if y.size == 1:
            y = np.array([y[0], -y[0]])
        block = y + rng.normal(0.0, 1.0, (rows, y.size))
        for times, ys in ((t, y), (t, block), (rng.uniform(0.0, 10.0, (rows, 1)), block)):
            band, (w, _) = _weight_matrix(table, times, ys)
            assert np.array_equal(w, _elementwise_weights(table, times, ys, band))
            whole += band == slice(0, table.n)
        band, (w, _) = _weight_matrix(table, t, y[[0, 0]])
        assert np.array_equal(w, _elementwise_weights(table, t, y[[0, 0]], band))
        g, h = posterior_mean_var(table, t, y[:1])
        g2, h2 = posterior_mean_var(table, t, y[[0, 0]])
        assert g[0] == g2[0] and h[0] == h2[0]
    if name == "three_atoms":
        assert whole > 0


def test_weight_matrix_of_a_one_node_band():
    # at t = 40 the atoms +-1 lie 2|y| ~ 80 apart in log weight, past the cut,
    # so each call keeps one node, its weights all exactly 1; the pair still
    # has room for the [y, 1] operand in its scratch half
    table = build_quadrature(PriorSpec.bernoulli(1.0, 0.5))
    rng = np.random.default_rng(11)
    for sign in (1.0, -1.0):
        y = sign * rng.normal(40.0, math.sqrt(40.0), 500)
        for times, ys in ((40.0, y), (40.0, y.reshape(5, 100)), (np.full((5, 1), 40.0), y.reshape(5, 100))):
            band, (w, d) = _weight_matrix(table, times, ys)
            assert band == (slice(1, 2) if sign > 0 else slice(0, 1))
            assert w.shape == d.shape == (1, y.size) and np.all(w == 1.0)
            assert np.array_equal(w, _elementwise_weights(table, times, ys, band))
            g, h = posterior_mean_var(table, times, ys)
            assert np.all(g == sign) and np.all(h == 0.0)


def test_weight_matrix_allocates_no_operand_beside_the_pair():
    # a 4,096-column call on 128 Gaussian nodes: its [y, 1] operand (64 KiB)
    # lives in the pair's scratch half, so the call's peak above the pair is
    # the column maxima (32 KiB), numpy's ufunc buffer for the broadcast max
    # shift (64 KiB) and a few node-length rows, under a quarter of the
    # operand that a separate [y, 1] would add
    table = build_quadrature(PriorSpec.gaussian(0.0, 1.0), n=128)
    y = np.random.default_rng(13).normal(0.0, 1.5, 4096)
    operand = 2 * y.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        band, (w, d) = _weight_matrix(table, 1.0, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert band.stop - band.start > 40
    passes = y.nbytes + 8 * np.getbufsize()  # the column maxima, and the buffer of the broadcast max shift
    assert w.nbytes + d.nbytes <= peak < w.nbytes + d.nbytes + passes + operand // 4


def test_array_times_are_checked(bernoulli_table):
    y = np.array([[0.0, 1.0], [2.0, 3.0]])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            posterior_mean_var(bernoulli_table, np.array([[0.5], [bad]]), y)
    # one time per column, or a row count that differs, is refused
    for t in (np.array([0.5, 1.0]), np.array([[0.5, 1.0]]), np.array([[0.5], [1.0], [1.5]])):
        with pytest.raises(ValueError, match="do not match"):
            posterior_mean_var(bernoulli_table, t, y)
    with pytest.raises(ValueError, match="do not match"):
        posterior_mean_var(bernoulli_table, np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(PosteriorError, match="non-finite"):
        posterior_mean_var(bernoulli_table, np.array([[0.5], [1.0]]), np.array([[0.0, 1.0], [2.0, math.inf]]))


def test_empty_observation_array_gives_empty_moments(gaussian_table):
    g, h = posterior_mean_var(gaussian_table, 1.0, np.array([]))
    assert g.shape == (0,) and h.shape == (0,)


# ---------------------------------------------------------------------------
# table moments
# ---------------------------------------------------------------------------


def test_prior_moments_bernoulli():
    for beta, p in [(1.0, 0.5), (2.0, 0.3)]:
        table = build_quadrature(PriorSpec.bernoulli(beta, p))
        assert table.mean() == pytest.approx(beta * (2 * p - 1), abs=1e-14)
        assert table.variance() == pytest.approx(beta**2 * 4 * p * (1 - p), abs=1e-14)


def test_prior_moments_gaussian_shifted():
    table = build_quadrature(PriorSpec.gaussian(2.0, 3.0), n=64)
    assert table.mean() == pytest.approx(2.0, abs=1e-8)
    assert table.variance() == pytest.approx(3.0, abs=1e-8)


# ---------------------------------------------------------------------------
# backward heat equation for the normalizing integral
# ---------------------------------------------------------------------------


def test_heat_residual_second_order(all_tables):
    for table in all_tables.values():
        r1 = heat_residual_F(table, 0.5, 0.37, 0.08)
        r2 = heat_residual_F(table, 0.5, 0.37, 0.04)
        order = math.log2(abs(r1) / abs(r2))
        assert order >= 1.8
