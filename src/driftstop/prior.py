"""Prior distributions of the unobservable drift and their posterior quantities.

The observation model is Y(t) = X*t + W(t) with W a standard Wiener process and
X a random drift with prior distribution mu.  Conditioning on the observation
level Y(t) = y reweights mu by exp(u*y - u^2*t/2); every quantity in this
module is an integral against that exponentially tilted measure, computed on a
discrete quadrature table with max-shifted (log-sum-exp) exponents so that no
intermediate overflows.  The kernel forms the logits as one matrix product,
[u, ln w - u^2 t/2] by [y, 1], rounded as u*y and then the sum, keeps the
shifted weights unnormalised (each column's largest is exactly 1) and divides
each column's sums by the column's total once, after summing.

The classical filtering objects:

* ``posterior_mean_var`` -- conditional mean G(t,y) of X given Y(t)=y and
                            conditional variance H(t,y), the spatial gradient
                            of G, over an array of y in one call.
* ``widder_F``           -- the normalizing integral F(t,y) (Widder transform
                            of mu), a positive solution of the backward heat
                            equation; ``heat_residual_F`` checks that equation.

``posterior_mean_var`` runs on one contiguous band of nodes per call.  At fixed
t the log weight of node i is a line in y with slope u_i, so the first and the
last node within L of a column's largest log weight never move down as y
grows; the band from the first such node at the call's smallest y to the last
such node at its largest y holds every node any column keeps, including every
column's largest.  L = ln(q (1 + D^2)) + 53 ln 2, with q nodes spanning D, so
the dropped weights sum to less than 2^-53 / (1 + D^2) of each column and
move G by less than 0.6e-16 and H by less than 1.2e-16 (absolute), below the
kernel's own round-off.  The kept weights are computed exactly as on the
whole table; a column's last bits can still depend on the extreme columns
that share its call, since they set the band the sums run over.

A call may also give each row of a 2-d y its own time, an array of shape
(rows, 1), as the Monte Carlo walk does with its blocks of steps x paths.
Each row then gives a band from its smallest and its largest y as above, and
the call's band runs from the first to the last node of these, so it still
holds every node any column keeps; a column's weights are the ones a call
at its row's time alone computes, so on the same band it gets the same
bits.  A scalar time is one time for every row, on the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PosteriorError",
    "PriorError",
    "PriorSpec",
    "QuadratureTable",
    "WidderValue",
    "build_quadrature",
    "widder_F",
    "posterior_mean_var",
    "heat_residual_F",
]

# each family's fields besides 'kind', in the order its constructor takes them
_FIELDS = {
    "discrete_atoms": ("atoms",),
    "gaussian": ("m", "sigma2"),
    "symmetric_gaussian_mixture": ("m", "sigma"),
    "half_normal": ("sigma2",),
    "tabulated_density": ("grid", "density_values"),
}
_FAMILIES = tuple(_FIELDS)

# Tail mass left outside the node range for truncated continuous families.
# Posterior reweighting multiplies the tail by exp(u*y), so the cut must be
# far deeper than the target quadrature accuracy.
_TAIL_MASS = 1e-26
_TAIL_Z = 7.567197358098901  # erfcinv(_TAIL_MASS): the half-normal's cut is sigma sqrt(2) times this

# the most nodes a table may ask for: numpy builds a Gauss rule of n nodes from
# an n x n matrix, so a huge count would run out of memory
MAX_NODES = 1024

# a parametric family's table must match its analytic mean and variance to
# this relative tolerance
_MOMENT_RTOL = 1e-8


class PriorError(ValueError):
    """Raised for invalid prior specifications or quadrature inputs."""


class PosteriorError(RuntimeError):
    """Raised when an observation level gives non-finite posterior weights."""


@dataclass(frozen=True)
class PriorSpec:
    """Declarative description of the drift's prior distribution.

    Exactly one parametric family is active, selected by ``kind``:

    * ``discrete_atoms``: ``atoms`` = sequence of (point, weight), weights > 0
      summing to 1.
    * ``gaussian``: mean ``m``, variance ``sigma2`` > 0.
    * ``symmetric_gaussian_mixture``: equal-weight mixture of N(m, sigma^2)
      and N(-m, sigma^2), with offset ``m`` > 0 and std ``sigma`` > 0.
    * ``half_normal``: |N(0, sigma2)|, i.e. the absolute value of a centered
      normal with variance ``sigma2``.
    * ``tabulated_density``: piecewise-linear density on a strictly increasing
      ``grid`` (>= 3 points) with nonnegative ``density_values``.

    One-point distributions are rejected: the estimation problem is trivial
    when the drift is deterministic.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] | None = None
    m: float | None = None
    sigma2: float | None = None
    sigma: float | None = None
    grid: tuple[float, ...] | None = None
    density_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise PriorError(f"unknown prior kind {self.kind!r}; expected one of {_FAMILIES}")
        for name in _FIELDS[self.kind]:
            if getattr(self, name) is None:
                raise PriorError(f"prior of kind {self.kind!r} is missing field {name!r}")
            _numbers(getattr(self, name), name, self.kind)
        getattr(self, f"_validate_{self.kind}")()

    # ---- constructors -------------------------------------------------

    @classmethod
    def discrete_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "PriorSpec":
        return cls(kind="discrete_atoms", atoms=tuple((float(u), float(w)) for u, w in atoms))

    @classmethod
    def bernoulli(cls, beta: float, p: float = 0.5) -> "PriorSpec":
        """Two-point prior on {-beta, +beta} with P(X = beta) = p."""
        return cls.discrete_atoms([(-float(beta), 1.0 - float(p)), (float(beta), float(p))])

    @classmethod
    def gaussian(cls, m: float, sigma2: float) -> "PriorSpec":
        return cls(kind="gaussian", m=float(m), sigma2=float(sigma2))

    @classmethod
    def symmetric_gaussian_mixture(cls, m: float, sigma: float) -> "PriorSpec":
        return cls(kind="symmetric_gaussian_mixture", m=float(m), sigma=float(sigma))

    @classmethod
    def half_normal(cls, sigma2: float) -> "PriorSpec":
        return cls(kind="half_normal", sigma2=float(sigma2))

    @classmethod
    def tabulated_density(cls, grid: Sequence[float], density_values: Sequence[float]) -> "PriorSpec":
        return cls(
            kind="tabulated_density",
            grid=tuple(float(g) for g in grid),
            density_values=tuple(float(v) for v in density_values),
        )

    # ---- validation ----------------------------------------------------

    def _validate_discrete_atoms(self) -> None:
        if not self.atoms:
            raise PriorError("discrete_atoms requires a nonempty atom list")
        pts = [u for u, _ in self.atoms]
        wts = [w for _, w in self.atoms]
        if any(w <= 0.0 for w in wts):
            raise PriorError("atom weights must be positive")
        if abs(sum(wts) - 1.0) > 1e-12:
            raise PriorError(f"atom weights must sum to 1 within 1e-12, got {sum(wts)!r}")
        if len(set(pts)) < 2:
            raise PriorError("one-point priors are rejected: need at least two distinct atoms")

    def _validate_gaussian(self) -> None:
        if not self.sigma2 > 0.0:
            raise PriorError("gaussian sigma2 must be positive")

    def _validate_symmetric_gaussian_mixture(self) -> None:
        if not (self.m > 0.0 and self.sigma > 0.0):
            raise PriorError("mixture requires m > 0 and sigma > 0")

    def _validate_half_normal(self) -> None:
        if not self.sigma2 > 0.0:
            raise PriorError("half_normal requires sigma2 > 0")

    def _validate_tabulated_density(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        f = np.asarray(self.density_values, dtype=float)
        if g.size < 3:
            raise PriorError("tabulated grid needs at least 3 points")
        if g.size != f.size:
            raise PriorError("grid and density_values must have the same length")
        if not np.all(np.diff(g) > 0.0):
            raise PriorError("tabulated grid must be strictly increasing")
        if np.any(f < 0.0):
            raise PriorError("density values must be nonnegative")
        f = _unit_scaled(f)  # only the shape counts, and no cell mass or moment of a scaled one overflows
        masses = 0.5 * (f[1:] + f[:-1]) * np.diff(g)
        if masses.sum() <= 0.0:
            raise PriorError("tabulated density carries no mass")
        if np.count_nonzero(masses > 0.0) < 2:
            raise PriorError("one-point priors are rejected: density mass in a single cell")
        # the second moment must be stable under refinement at the working
        # resolution (coarse declared grids are refined before quadrature)
        g1, f1 = _refine_to_cells(g, f, 128)
        g2, f2 = _refine_tabulated(g1, f1)
        with np.errstate(over="ignore", invalid="ignore"):
            m2, m2r = _second_moment(g1, f1), _second_moment(g2, f2)
        if not (math.isfinite(m2) and math.isfinite(m2r)):
            raise PriorError("prior field 'grid' of kind 'tabulated_density': its second moment overflows a float")
        if abs(m2r - m2) > 0.01 * max(abs(m2), 1e-300):
            raise PriorError(
                f"tabulated second moment not stable under refinement ({m2!r} vs {m2r!r})"
            )

    # ---- (de)serialization ----------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "PriorSpec":
        if not isinstance(doc, dict):
            raise PriorError("prior document must be a JSON object")
        kind = doc.get("kind")
        if kind not in _FAMILIES:
            raise PriorError(f"prior field 'kind' must be one of {_FAMILIES}, got {kind!r}")
        try:
            return getattr(cls, kind)(*(_numbers(doc[name], name, kind) for name in _FIELDS[kind]))
        except KeyError as exc:
            raise PriorError(f"prior of kind {kind!r} is missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, PriorError):
                raise
            raise PriorError(f"malformed prior of kind {kind!r}: {exc}") from exc

    def to_dict(self) -> dict:
        fields = _FIELDS[self.kind]
        return {"kind": self.kind} | {name: _numbers(getattr(self, name), name, self.kind) for name in fields}


def _numbers(value, name: str, kind: str):
    """A prior field's value with every sequence, at every depth, as a list; refused
    unless a finite number or a sequence of them (of pairs, for atoms)."""
    if isinstance(value, (list, tuple)):
        return [_numbers(v, name, kind) for v in value]
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and math.isfinite(value)):
        raise PriorError(f"prior field {name!r} of kind {kind!r} must hold finite numbers, got {value!r}")
    return value


def _unit_scaled(f: np.ndarray) -> np.ndarray:
    """A density times the power of two that brings its largest value into [0.5, 1): its shape, exactly."""
    return np.ldexp(f, -np.frexp(f.max())[1])


def _second_moment(g: np.ndarray, f: np.ndarray) -> float:
    mass = np.trapezoid(f, g)
    return float(np.trapezoid(f * g**2, g) / mass)


def _refine_tabulated(g: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mids = 0.5 * (g[1:] + g[:-1])
    g2 = np.sort(np.concatenate([g, mids]))
    return g2, np.interp(g2, g, f)


def _refine_to_cells(g: np.ndarray, f: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    while g.size - 1 < n_cells:
        g, f = _refine_tabulated(g, f)
    return g, f


class WidderValue(NamedTuple):
    """Linear and log values of the normalizing integral F(t, y)."""

    value: float
    log_value: float


@dataclass(frozen=True)
class QuadratureTable:
    """Discrete nodes/weights representing the prior (or a posterior).

    ``nodes`` are strictly increasing support points, ``weights`` sum to one,
    and ``support_bounds`` records (inf, sup) of the underlying distribution's
    support, possibly infinite.  All integrals downstream run on this table.
    """

    nodes: np.ndarray
    weights: np.ndarray
    support_bounds: tuple[float, float]
    log_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise PriorError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise PriorError("quadrature table needs at least two nodes")
        bad_nodes, bad_weights = np.count_nonzero(~np.isfinite(nodes)), np.count_nonzero(~np.isfinite(weights))
        if bad_nodes or bad_weights:
            raise PriorError(f"quadrature table has {bad_nodes} non-finite nodes and {bad_weights} non-finite weights")
        if not np.all(np.diff(nodes) > 0.0):
            raise PriorError("quadrature nodes must be strictly increasing")
        if np.any(weights < 0.0):
            raise PriorError("quadrature weights must be nonnegative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise PriorError(f"quadrature weights must sum to 1 within 1e-12, got {total!r}")
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_weights", np.log(weights))
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.log_weights.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    def mean(self) -> float:
        return float(self.weights @ self.nodes)

    def variance(self) -> float:
        m = self.mean()
        return float(self.weights @ (self.nodes - m) ** 2)


def build_quadrature(prior: PriorSpec, n: int = 128) -> QuadratureTable:
    """Discretize a prior into a quadrature table.

    Parameters
    ----------
    prior : PriorSpec
        Validated prior specification.
    n : int
        Target node count for continuous families, 2 to ``MAX_NODES``.
        Discrete priors pass through exactly regardless of ``n``.

    Node placement: Gauss-Hermite transformed to the family's location/scale
    for gaussian and mixture priors (moment-exact); Gauss-Legendre weighted by
    the density on a tail-truncated interval for the half-normal; midpoint
    atoms with trapezoid masses for tabulated densities.  Every family's
    nodes are then sorted, copies of one node merged (summed in the order
    given: the sort is stable) and the weights normalised; non-finite raw
    weights, or nodes that all round onto one float, are refused by the
    prior's fields.  A parametric family's table must match the family's
    exact mean and variance.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= MAX_NODES:
        raise PriorError(f"node count n must be an integer from 2 to {MAX_NODES}, got {n!r}")

    if prior.kind == "discrete_atoms":
        nodes = np.array([u for u, _ in prior.atoms], dtype=float)
        weights = np.array([w for _, w in prior.atoms], dtype=float)
        mean = float(sum(u * w for u, w in prior.atoms))
        moments = (mean, float(sum(w * (u - mean) ** 2 for u, w in prior.atoms)))
        support = (float(nodes.min()), float(nodes.max()))

    elif prior.kind == "gaussian":
        x, w = hermgauss(n)
        nodes = prior.m + math.sqrt(2.0 * prior.sigma2) * x
        weights = w / math.sqrt(math.pi)
        moments, support = (float(prior.m), float(prior.sigma2)), (-math.inf, math.inf)

    elif prior.kind == "symmetric_gaussian_mixture":
        x, w = hermgauss(max(2, (n + 1) // 2))
        scale = math.sqrt(2.0) * prior.sigma
        nodes = np.concatenate([-prior.m + scale * x, prior.m + scale * x])
        weights = np.concatenate([w, w]) / (2.0 * math.sqrt(math.pi))
        moments, support = (0.0, float(prior.sigma**2 + prior.m**2)), (-math.inf, math.inf)

    elif prior.kind == "half_normal":
        u_max = math.sqrt(prior.sigma2) * math.sqrt(2.0) * _TAIL_Z
        x, w = leggauss(n)
        nodes = 0.5 * (x + 1.0) * u_max
        dens = math.sqrt(2.0 / (math.pi * prior.sigma2)) * np.exp(-(nodes**2) / (2.0 * prior.sigma2))
        weights = 0.5 * u_max * w * dens
        moments = (math.sqrt(2.0 * prior.sigma2 / math.pi), float(prior.sigma2 * (1.0 - 2.0 / math.pi)))
        support = (0.0, math.inf)

    else:  # tabulated_density: the midpoints of the cells that carry mass; moments from the table alone
        f = _unit_scaled(np.asarray(prior.density_values, dtype=float))
        g, f = _refine_to_cells(np.asarray(prior.grid, dtype=float), f, n)
        masses = 0.5 * (f[1:] + f[:-1]) * np.diff(g)
        keep = masses > 0.0
        nodes, weights = 0.5 * (g[1:] + g[:-1])[keep], masses[keep]
        moments, support = None, (prior.grid[0], prior.grid[-1])

    bad = np.count_nonzero(~np.isfinite(weights))
    if bad:
        raise PriorError(f"the {nodes.size}-node quadrature of prior {prior.to_dict()} has {bad} non-finite weights")
    order = np.argsort(nodes, kind="stable")
    merged, weights = _merge_duplicate_nodes(nodes[order], weights[order])
    if merged.size < 2:
        raise PriorError(f"the {nodes.size} quadrature nodes of prior {prior.to_dict()} round onto one float")
    table = QuadratureTable(merged, weights / weights.sum(), support)

    if moments is not None:
        mean, var = moments
        scale = max(abs(mean), math.sqrt(var))
        if abs(table.mean() - mean) > _MOMENT_RTOL * scale:
            raise PriorError(
                f"table mean {table.mean()!r} misses analytic mean {mean!r} beyond relative tolerance {_MOMENT_RTOL}"
            )
        if abs(table.variance() - var) > _MOMENT_RTOL * max(var, scale**2):
            raise PriorError(
                f"table variance {table.variance()!r} misses analytic variance {var!r} "
                f"beyond relative tolerance {_MOMENT_RTOL}"
            )
    return table


def _merge_duplicate_nodes(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``nodes`` without repeats, each carrying the sum of its copies' weights."""
    nodes, first = np.unique(nodes, return_index=True)
    return nodes, np.add.reduceat(weights, first)


# ---------------------------------------------------------------------------
# posterior reweighting
# ---------------------------------------------------------------------------


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    return t


def _check_times(t, shape: tuple) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if len(shape) != 2 or t.shape != (shape[0], 1):
        raise ValueError(f"times of shape {t.shape} do not match observations of shape {shape}: need one per row")
    bad = ~(np.isfinite(t) & (t >= 0.0))
    if bad.any():
        raise ValueError(f"time must be finite and >= 0, got {float(t[bad][0])!r}")
    return t


def _tilt(table: QuadratureTable, t) -> np.ndarray:
    """The y-free part ln w_i - u_i^2 t / 2 of every node's log posterior weight."""
    u = table.nodes
    return table.log_weights - 0.5 * t * u * u


def _band_cut(table: QuadratureTable) -> float:
    """Log-weight depth L below a column's largest beyond which the kernel drops a node.

    The dropped weights sum to less than q e^-L = 2^-53 / (1 + D^2) of the
    column's total, with D the node span, so they move the mean by at most
    2^-53 D / (1 + D^2) <= 2^-54 and the variance by at most 2^-53.
    """
    span = float(table.nodes[-1] - table.nodes[0])
    return math.log(table.n * (1.0 + span * span)) + 53.0 * math.log(2.0)


_FIRST_COLUMN = np.zeros(1, dtype=np.intp)


def _weight_matrix(table: QuadratureTable, t, y: np.ndarray) -> tuple[slice, np.ndarray]:
    """Max-shifted posterior weights on the node band the call can reach, one column per y.

    Returns the band as a slice of the nodes and a pair of band x column
    matrices: the weights of its nodes, one column per element of ``y`` in
    its order, and an uninitialised one of the same shape for the caller's
    scratch.  The two share one allocation: two separate ones of this size
    can make the heap top shrink and grow back on every call, and the call
    then spends its time faulting in fresh pages.  The weights are
    unnormalised: each column's largest is exactly 1, so its sum lies in
    [1, band width], and the caller divides its sums by that sum.  ``y`` is
    read as rows along its last axis (a 1-d ``y`` is one row), and ``t`` is
    one time for every row or, for a 2-d ``y``, one per row, of shape
    ``(rows, 1)``.  Each row adds the band from the full-table logits of its
    smallest and its largest y alone; the call's band runs from the first to
    the last node of these (see the module docstring).  The band's logits are
    one product of row x node x [u, ln w - u^2 t / 2] by row x [y, 1] x column
    into a row x node x column view of the weights; [y, 1] lives in the
    scratch half, so the pair has two nodes at least.  ``y`` must be non-empty.
    """
    y = y.reshape(-1, y.shape[-1])  # row x column
    tilt = _tilt(table, np.array(t, ndmin=2))  # row x node, one row for a scalar time
    # [smallest, largest y] x row x 1: a reduceat from column 0 is the cheapest row reduction
    ext = np.array([np.minimum.reduceat(y, _FIRST_COLUMN, axis=1), np.maximum.reduceat(y, _FIRST_COLUMN, axis=1)])
    ends = ext * table.nodes
    ends += tilt  # [smallest, largest y] x row x node
    top = ends.max(axis=2)
    if not np.isfinite(top).all():
        y_end = ext[~np.isfinite(top)][0, 0]
        raise PosteriorError(f"observation level y={float(y_end)!r} gives non-finite posterior weights")
    cut = top - _band_cut(table)
    rows = top.shape[1]
    first = int((ends[0] >= cut[0, :, None]).T.argmax()) // rows  # first node kept at a row's smallest y
    past_last = table.n - int((ends[1, :, ::-1] >= cut[1, :, None]).T.argmax()) // rows  # past the last at its largest
    band, width = slice(first, past_last), past_last - first
    pair = np.empty((2, max(width, 2)) + y.shape)  # two nodes at least: the scratch half holds [y, 1]
    y1 = pair[1].reshape(-1)[: 2 * y.size].reshape(y.shape[0], 2, -1)  # row x [y, 1] x column
    y1[:, 0], y1[:, 1] = y, 1.0
    ut = np.empty((tilt.shape[0], width, 2))  # row x node x [u, tilt]
    ut[:, :, 0], ut[:, :, 1] = table.nodes[band], tilt[:, band]
    w = pair[0, :width]  # node x row x column
    np.matmul(ut, y1, out=w.transpose(1, 0, 2))  # u y + tilt, rounded as u y, then + tilt (see the module docstring)
    w -= w.max(axis=0)  # max shift: each column's largest weight is exactly 1
    np.exp(w, out=w)
    return band, pair[:, :width].reshape(2, width, -1)


def posterior_mean_var(table: QuadratureTable, t, y) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior mean and variance over an array of y values, in the shape of ``y``.

    ``t`` is one time for every y, or one time per row of a 2-d ``y``, of
    shape ``(rows, 1)``.  With the band's max-shifted weights w of a column
    and their sum S0, G = sum(w u) / S0 and H = sum(w (u - G)^2) / S0: the
    weights are never normalised one by one.  A one-column ``y`` is evaluated
    as two equal columns, and gets the bits a wider call gives it: numpy would
    send it to a matrix-vector routine, which may round u y + tilt once.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    t = _check_time(t) if np.ndim(t) == 0 else _check_times(t, y_arr.shape)
    if y_arr.size == 0:
        return np.empty(y_arr.shape), np.empty(y_arr.shape)
    cols = y_arr.shape[-1]
    if cols == 1:
        y_arr = y_arr.repeat(2, axis=-1)
    band, (w, d) = _weight_matrix(table, t, y_arr)
    u = table.nodes[band]
    s0 = w.sum(axis=0)
    g = u @ w
    g /= s0  # in place, as h below: one column-length temporary fewer
    # centred two-pass variance, its square fused into the sum: raw moments
    # about a fixed centre cancel badly when the posterior sits on an edge node
    np.subtract(u[:, None], g, out=d)
    h = np.einsum("ij,ij,ij->j", w, d, d)
    h /= s0
    return g.reshape(y_arr.shape)[..., :cols], h.reshape(y_arr.shape)[..., :cols]


def widder_F(table: QuadratureTable, t: float, y: float) -> WidderValue:
    """Normalizing integral F(t,y) = sum_i w_i exp(u_i y - u_i^2 t / 2).

    Returned in the log domain alongside the linear value; the log value stays
    finite for arbitrarily large exponents, while the linear value saturates
    to inf (overflow) or 0.0 (underflow) outside the representable range.
    """
    t = _check_time(t)
    logits = table.nodes * float(y) + _tilt(table, t)
    m = logits.max()
    log_value = float(m + math.log(np.exp(logits - m).sum()))
    with np.errstate(over="ignore"):
        value = float(math.exp(log_value)) if log_value < 709.0 else math.inf
    return WidderValue(value=value, log_value=log_value)


def heat_residual_F(table: QuadratureTable, t: float, y: float, h: float) -> float:
    """Central-difference residual of dF/dt + (1/2) d2F/dy2, relative to F(t,y).

    Second-order accurate in the step h; F solves the backward heat equation
    exactly, so the residual measures pure stencil truncation error.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if t - h < 0.0:
        raise ValueError(f"stencil leaves the domain: t - h = {t - h!r} < 0")
    ref = widder_F(table, t, y).log_value

    def rel(tt: float, yy: float) -> float:
        return math.exp(widder_F(table, tt, yy).log_value - ref)

    dt = (rel(t + h, y) - rel(t - h, y)) / (2.0 * h)
    dyy = (rel(t, y + h) - 2.0 + rel(t, y - h)) / (h * h)
    return dt + 0.5 * dyy
