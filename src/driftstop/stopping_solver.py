"""Backward-in-time obstacle solver for the optimal stopping value function.

The estimate process diffuses with local variance Psi(t, x)^2 and the running
cost of continuing observation is c - Psi^2.  The value function v <= 0 solves
the parabolic variational inequality

    min( dv/dt + (1/2) Psi^2 d2v/dx2 + c - Psi^2,  -v ) = 0

backward from the horizon T_max.  The terminal slice is the stationary value
v_inf, the solution of the same obstacle problem with Psi frozen at its
t -> infinity limit; since Psi only decreases in t, v(T, .) <= v_inf <= 0, and
v_inf is exact for two-point priors and zero once sup_x Psi(T)^2 <= c.  The
march is second order in t: each row is a BDF2 step from the two rows above
it, except the first row below T_max, which takes one implicit Euler step
from v_inf.  The stationary problem and every step are tridiagonal linear
complementarity problems solved exactly by policy iteration; each iteration
makes the stopped rows identity rows v = 0 and solves the whole system by one
Thomas sweep, in Python floats, so no solve needs a linear-algebra library.
Both lateral boundaries reflect.  Repeating the march on every second row
estimates the time error, and on every second node the space error.
Stopping regions are read off the solved grid and classified.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import compress
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .closed_form import bernoulli_solve
from .csvio import format_float, write_table_csv
from .dispersion import PsiGrid, invertible_interval, psi_grid as build_psi_grid
from .prior import QuadratureTable

__all__ = [
    "SolverError",
    "SolverConfig",
    "ValueGrid",
    "BoundaryCurve",
    "HorizonResult",
    "MonotonicityReport",
    "OrderingReport",
    "RegionCheck",
    "choose_horizon",
    "default_domain",
    "solver_psi_grid",
    "solve_value",
    "extract_regions",
    "monotonicity_report",
    "compare_value_ordering",
    "bernoulli_comparison_check",
    "locally_good_check",
]


class SolverError(RuntimeError):
    """Numerical failure inside the obstacle solver."""


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and per-step solve parameters.

    ``x_lo``/``x_hi`` truncate the state space strictly inside the support
    interval; ``T_max`` is the horizon, where the solve starts from the
    stationary value.  The truncation reflects, which is exact whenever the
    dispersion is flat in x near it or it lies in the stopping region.
    ``obstacle_tol`` is fixed: it scales the tolerances that classify stop and
    continue cells and check monotonicity, not the LCP solve.
    """

    obstacle_tol: ClassVar[float] = 1e-10

    n_t: int
    n_x: int
    T_max: float
    x_lo: float
    x_hi: float

    def __post_init__(self) -> None:
        if self.n_t < 8 or self.n_x < 8:
            raise ValueError("need n_t >= 8 and n_x >= 8")
        if not (self.T_max > 0.0):
            raise ValueError("T_max must be positive")
        if not (self.x_lo < self.x_hi):
            raise ValueError("x_lo must be below x_hi")

    @property
    def dt(self) -> float:
        return self.T_max / self.n_t

    @property
    def zero_tol(self) -> float:
        # region classification must not chase solver noise
        return 10.0 * self.obstacle_tol

    def solve_times(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.dt

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x)

    def check_lattice(self, t_nodes: np.ndarray, x_nodes: np.ndarray, source) -> None:
        """Refuse t and x nodes that are not ``solve_times()`` and ``x_nodes()`` bit for bit, naming ``source``."""
        for name, got, want in (("t", t_nodes, self.solve_times()), ("x", x_nodes, self.x_nodes())):
            if got.tobytes() != want.tobytes():
                raise ValueError(f"the {name} nodes of {source} are off the {self.n_t + 1} x {self.n_x} solver lattice")

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


def default_domain(table: QuadratureTable) -> tuple[float, float]:
    """Spatial truncation: prior mean +/- 6 std, clipped inside the invertible range."""
    mean, var = table.mean(), table.variance()
    std = math.sqrt(var)
    lo_n, hi_n = invertible_interval(table)
    eps = 1e-6 * (hi_n - lo_n)
    x_lo = max(mean - 6.0 * std, lo_n + eps)
    x_hi = min(mean + 6.0 * std, hi_n - eps)
    return float(x_lo), float(x_hi)


def solver_psi_grid(table: QuadratureTable, config: SolverConfig) -> PsiGrid:
    """Dispersion surface evaluated exactly on the solver's lattice."""
    return build_psi_grid(table, config.solve_times(), config.x_nodes(), tol=1e-10)


class HorizonResult(NamedTuple):
    t_c: float | None
    horizon: float
    capped: bool


def choose_horizon(sup_psi2: Callable[[float], float], t_scan, c: float) -> HorizonResult:
    """Smallest scan time where sup_x Psi^2 <= c, with a 10% safety margin.

    ``sup_psi2(t)`` is sup_x Psi(t, .)^2 over the scanned slice; from the first
    time it passes on, the whole slice stops, so truncating the solve there is
    exact.  Psi does not increase in t, so once a time passes every later one
    does: the last time is tried first (if it fails, it is returned with
    ``capped=True``), then bisection finds the first pass in at most
    ceil(log2(len(t_scan))) more calls.
    """
    if c <= 0.0:
        raise ValueError("cost rate c must be positive")
    if sup_psi2(float(t_scan[-1])) > c:
        return HorizonResult(t_c=None, horizon=float(t_scan[-1]), capped=True)
    fails, passes = -1, len(t_scan) - 1  # every index <= fails fails, every one >= passes passes
    while passes - fails > 1:
        mid = (fails + passes) // 2
        if sup_psi2(float(t_scan[mid])) <= c:
            passes = mid
        else:
            fails = mid
    t_c = float(t_scan[passes])
    return HorizonResult(t_c=t_c, horizon=1.1 * t_c, capped=False)


@dataclass
class ValueGrid:
    """Solved value surface on the reported window [0, T_max]."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray
    psi_values: np.ndarray
    c: float
    config: SolverConfig
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_table_csv(path, self.t_nodes, self.x_nodes, self.values)


def _step_operator(psi_row: np.ndarray, dt: float, dx: float):
    """Tridiagonal coefficients of I + dt L, L = -(1/2) Psi^2 d2/dx2 with reflection.

    This is the implicit Euler operator; a BDF2 step adds 1/2 to its diagonal.
    """
    mu = 0.5 * dt * psi_row**2 / (dx * dx)
    diag = 1.0 + 2.0 * mu
    lower = -mu.copy()  # coefficient of v[j-1] in row j
    upper = -mu.copy()  # coefficient of v[j+1] in row j
    # reflecting ghost node: second difference uses the inner neighbor twice
    # (lower[0] and upper[-1] fall outside the matrix: the sweep multiplies
    # them by the 0 of an identity row past the edge)
    upper[0] = -2.0 * mu[0]
    lower[-1] = -2.0 * mu[-1]
    return lower, diag, upper


def _sweep(lower: list, diag: list, upper: list, rhs: list, stopped: list) -> list:
    """Solve the masked system by one Thomas sweep over every row; stopped rows read 0.

    A stopped row is the identity row v = 0: it resets the elimination to
    pivot 1, sum 0 and coupling 0, as does a row past each edge, so the
    coefficients that couple a continuation row to a stopped neighbour
    multiply 0 and drop out.  Elimination does not pivot: every step matrix
    is strictly diagonally dominant, and the stationary one is an M-matrix,
    nonsingular once a row stops.  So a pivot that is not finite, or not
    above 1e-12 x its diagonal, is a singular or broken operator: it raises
    ``SolverError`` naming its row.
    """
    n = len(diag)
    pivots = [1.0] * n
    sums = [0.0] * n
    p, r, up = 1.0, 0.0, 0.0
    for j in range(n):
        if stopped[j]:
            p, r, up = 1.0, 0.0, 0.0
        else:
            f = lower[j] / p
            d = diag[j]
            p = d - f * up
            if not 1e-12 * d < p < math.inf:
                raise SolverError(
                    f"singular or non-finite step operator in policy iteration: pivot {p!r} at row {j} "
                    f"is not a finite number above 1e-12 x its diagonal {d!r}"
                )
            r = rhs[j] - f * r
            pivots[j] = p
            sums[j] = r
            up = upper[j]
    x = 0.0
    for j in range(n - 1, -1, -1):
        if stopped[j]:
            x = 0.0
        else:
            x = (sums[j] - upper[j] * x) / pivots[j]
            sums[j] = x
    return sums


def _policy_step(
    rhs: np.ndarray,
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    stopped: list[bool],
    max_iter: int = 100,
) -> tuple[np.ndarray, list[bool], int]:
    """Exact LCP solve by policy iteration over the stopped set, one bool per row.

    Each iteration solves the masked system, whose stopped rows are identity
    rows v = 0 and whose continuation rows are the step's own, by one sweep
    over every row (``_sweep``).  A stopped row stays stopped while its
    residual is >= 0 and a continuation row stops once v > 0; the iteration
    ends when the set settles.  The sweep and these tests run on Python
    floats and bools: the rows are converted once per call, and the stopped
    set stays a list from call to call.
    """
    slack = 1e-13 * max(1.0, float(np.max(np.abs(rhs))))
    lo, di, up, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    stop = list(stopped)
    for it in range(1, max_iter + 1):
        v = _sweep(lo, di, up, b, stop)
        new_stop = [x > slack for x in v]
        # a stopped row (v = 0) is admissible while the residual of its *original*
        # row is: rhs less its neighbour terms, of which none lies past an edge
        vp = [0.0, *v, 0.0]
        for j in compress(range(len(v)), stop):
            new_stop[j] = b[j] - lo[j] * vp[j] - up[j] * vp[j + 2] >= -slack
        if new_stop == stop:
            return np.minimum(v, 0.0), stop, it
        stop = new_stop
    raise SolverError(f"policy iteration did not settle in {max_iter} iterations")


def _march(
    psi_down: np.ndarray, v_inf: np.ndarray, stopped: list[bool], c: float, dt: float, dx: float
) -> tuple[np.ndarray, np.ndarray]:
    """Step backward from v_inf over the rows of ``psi_down`` (row 0 at T_max).

    Row i solves the BDF2 obstacle step
    (3/2) v_i - 2 v_{i-1} + (1/2) v_{i-2} = dt (L_i v_i + c - Psi_i^2), v_i <= 0:
    the implicit operator's diagonal gains 1/2 and rhs = 2 v_{i-1} - v_{i-2}/2
    + dt (c - Psi_i^2).  Row 1 has only v_inf above it and takes one implicit
    Euler step.  Returns the values and LCP iterations per row, in row order.
    """
    values = np.empty_like(psi_down)
    values[0] = v_inf
    iterations = np.zeros(psi_down.shape[0], dtype=int)
    for i in range(1, psi_down.shape[0]):
        lower, diag, upper = _step_operator(psi_down[i], dt, dx)
        rhs = values[i - 1] + dt * (c - psi_down[i] ** 2)
        if i >= 2:
            diag = diag + 0.5
            rhs += values[i - 1] - 0.5 * values[i - 2]
        values[i], stopped, iterations[i] = _policy_step(rhs, lower, diag, upper, stopped)
    return values, iterations


def _stationary_value(
    psi_inf: np.ndarray, c: float, dx: float, config: SolverConfig
) -> tuple[np.ndarray, list[bool], int]:
    """The stationary value v_inf on nodes spaced ``dx``, its stopped set and LCP iterations."""
    rhs = c - psi_inf**2
    # w = trapezoid weight / Psi_inf^2 annihilates A from the left, so
    # A v <= rhs needs w.rhs >= 0; a node with Psi_inf = 0 decouples (+inf)
    trap = np.ones_like(rhs)
    trap[[0, -1]] = 0.5
    with np.errstate(divide="ignore"):
        if float(np.dot(trap, c / psi_inf**2 - 1.0)) < 0.0:
            raise SolverError(
                f"(c - Psi_inf^2) / Psi_inf^2 integrates below 0 over [x_lo, x_hi] = "
                f"[{config.x_lo!r}, {config.x_hi!r}]: the truncation misses the stopping "
                "region; widen it"
            )
    lower, diag, upper = _step_operator(psi_inf, 1.0, dx)
    # policy iteration only grows the continuation set here: <= n + 1 passes
    return _policy_step(rhs, lower, diag - 1.0, upper, (rhs >= 0.0).tolist(), max_iter=rhs.size + 1)


def solve_value(grid: PsiGrid, c: float, config: SolverConfig) -> ValueGrid:
    """Backward induction for the value surface.

    Parameters
    ----------
    grid : PsiGrid
        Dispersion surface on the solver lattice (``solver_psi_grid``); any
        other lattice is rejected.
    c : float
        Observation cost per unit time.
    config : SolverConfig

    The terminal slice is the stationary value v_inf, which solves the LCP
    A v <= c - Psi_inf^2, v <= 0 with complementarity, A the implicit step
    operator at Psi_inf without the identity.  It is a fixed point of the step
    when Psi = Psi_inf, and zero when Psi_inf^2 <= c everywhere.  It exists
    only if the trapezoid integral of (c - Psi_inf^2) / Psi_inf^2 over the
    truncation is >= 0; otherwise the truncation misses the stopping region and
    ``SolverError`` is raised (also when only every second node fails it, as
    the space estimate's lattice must pass too).  If c already dominates Psi^2
    everywhere on the first slice, every row stops everywhere on its first LCP
    pass and v = 0.  ``meta`` reports the time and space error estimates; the
    space one is None for an even ``n_x``, whose every second node stops one
    node short of ``x_hi``.
    """
    if c <= 0.0:
        raise ValueError("cost rate c must be positive")
    t_solve = config.solve_times()
    x = config.x_nodes()
    dx = float(x[1] - x[0])

    config.check_lattice(grid.t_nodes, grid.x_nodes, "the psi grid (build it with solver_psi_grid)")
    psi_mat = grid.values.copy()
    v_inf, stopped, n_stationary = _stationary_value(grid.stationary, c, dx, config)
    psi_down = psi_mat[::-1]  # row 0 at T_max
    down, steps = _march(psi_down, v_inf, stopped, c, config.dt, dx)
    values, iterations = down[::-1], steps[::-1]
    iterations[-1] = n_stationary
    # the same march on every second row: its gap to the fine one is 3x the
    # fine one's O(dt^2) time error
    coarse, _ = _march(psi_down[::2], v_inf, stopped, c, 2.0 * config.dt, dx)
    time_error = float(np.max(np.abs(down[::2] - coarse))) / 3.0
    # and on every second node, which for odd n_x ends at x_hi too: its gap is
    # 3x the fine one's O(dx^2) error at the nodes (not between them)
    space_error = None
    if config.n_x % 2:
        v_inf2, stopped2, _ = _stationary_value(grid.stationary[::2], c, 2.0 * dx, config)
        coarse, _ = _march(psi_down[:, ::2], v_inf2, stopped2, c, config.dt, 2.0 * dx)
        space_error = float(np.max(np.abs(down[:, ::2] - coarse))) / 3.0

    meta = {
        "flags": [],  # no safeguard left to report; the key keeps solver_meta.json stable
        "config_hash": config.digest(),
        "max_step_iterations": int(iterations.max()),
        "total_step_iterations": int(iterations.sum()),
        "time_error_estimate": time_error,
        "space_error_estimate": space_error,
    }
    return ValueGrid(
        t_nodes=t_solve,
        x_nodes=x,
        values=values,
        psi_values=psi_mat,
        c=float(c),
        config=config,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# region extraction and structural checks
# ---------------------------------------------------------------------------


# b on slices that stop nowhere and everywhere, in each shape's convention
_B_EMPTY_FULL = {
    "all_stop": (-math.inf, -math.inf),
    "one_sided_lower": (-math.inf, math.inf),
    "one_sided_upper": (math.inf, -math.inf),
    "two_sided_symmetric": (math.inf, 0.0),
    "general": (math.nan, math.nan),
}


def _slice_kind(segs: list[tuple[float, float]]) -> tuple[str, float]:
    """How a slice stops, and its boundary b when it stops on one or two rays (else nan)."""
    if not segs:
        return "empty", math.nan
    from_below, to_above = segs[0][0] == -math.inf, segs[-1][1] == math.inf
    if len(segs) == 1 and from_below and to_above:
        return "full", math.nan
    if len(segs) == 1 and from_below:
        return "lower", segs[0][1]
    if len(segs) == 1 and to_above:
        return "upper", segs[0][0]
    if len(segs) == 2 and from_below and to_above:
        return "two_sided", 0.5 * (segs[1][0] - segs[0][1])
    return "other", math.nan


@dataclass
class BoundaryCurve:
    """Per-slice stopping intervals with a shape classification.

    A stopping interval that reaches past the solved window has an infinite
    end.  ``shape`` is one of ``all_stop``, ``one_sided_lower`` (stop at and
    below b(t)), ``one_sided_upper`` (stop at and above b(t)),
    ``two_sided_symmetric`` (continue inside (-b(t), b(t))), or ``general``.
    """

    t_nodes: np.ndarray
    intervals: list[list[tuple[float, float]]]
    shape: str

    @classmethod
    def symmetric_threshold(cls, a: float) -> "BoundaryCurve":
        """Constant-in-time rule: stop as soon as |x| >= a."""
        a = float(a)
        return cls(np.array([0.0]), [[(-math.inf, -a), (a, math.inf)]], "two_sided_symmetric")

    @classmethod
    def stop_below(cls, b: float) -> "BoundaryCurve":
        """Constant-in-time rule: stop as soon as x <= b."""
        return cls(np.array([0.0]), [[(-math.inf, float(b))]], "one_sided_lower")

    @property
    def b(self) -> np.ndarray:
        """The boundary per slice, read off the intervals in the convention of ``shape``.

        A slice that stops nowhere or everywhere takes the shape's value for
        that case; a slice that stops other than on one or two rays is nan.
        """
        b_of = dict(zip(("empty", "full"), _B_EMPTY_FULL[self.shape]))
        return np.array([b_of.get(kind, b) for kind, b in map(_slice_kind, self.intervals)])

    @property
    def has_finite_end(self) -> bool:
        """Does some stopping interval have a finite end?  A rule without one stops
        nowhere or everywhere at each time, whatever x is, and a shift leaves it as it is."""
        return any(math.isfinite(end) for segs in self.intervals for seg in segs for end in seg)

    def slice_index(self, t):
        """The slice in force at time t, or at each of an array of times: the last one
        starting at or before t + 1e-15, and the first one before it starts."""
        i = np.searchsorted(self.t_nodes, np.asarray(t, dtype=float) + 1e-15, side="right") - 1
        i = np.clip(i, 0, self.t_nodes.size - 1)
        return int(i) if i.ndim == 0 else i

    def contains(self, t: float, x) -> np.ndarray:
        """Is (t, x) in the stopping set?  Piecewise constant to the right in t."""
        segs = self.intervals[self.slice_index(t)]
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x_arr.shape, dtype=bool)
        for lo, hi in segs:
            out |= (x_arr >= lo) & (x_arr <= hi)
        return out

    def shifted(self, delta: float) -> "BoundaryCurve":
        """Move every finite end outward by ``delta`` (delta > 0 enlarges continuation).

        Infinite ends stay, and an interval that shrinks past empty is dropped.
        """
        ivals = [
            [(lo + delta, hi - delta) for lo, hi in segs if lo + delta <= hi - delta]
            for segs in self.intervals
        ]
        return BoundaryCurve(self.t_nodes.copy(), ivals, self.shape)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,shape,b,intervals\n")
            for ti, bi, segs in zip(self.t_nodes, self.b, self.intervals):
                ivals = ";".join(f"{format_float(lo)}:{format_float(hi)}" for lo, hi in segs)
                fh.write(f"{format_float(ti)},{self.shape},{format_float(bi)},{ivals}\n")


def extract_regions(values: np.ndarray, config: SolverConfig) -> BoundaryCurve:
    """Stopping set per time slice, merged into maximal intervals and classified.

    ``values`` is v on ``config``'s lattice: one row per ``solve_times()``
    and one column per ``x_nodes()``.  A finite end lies where v,
    interpolated linearly between a stop node and its continue neighbour,
    crosses the classification level; a run of stop nodes that reaches the
    truncation edge stops past it, so that end is infinite.
    """
    t, x, v = config.solve_times(), config.x_nodes(), values
    ztol = config.zero_tol
    mask = v >= -ztol
    # runs of stop nodes: +1 steps open them, -1 steps close them, row by row
    steps = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, first = np.nonzero(steps == 1)
    last = np.nonzero(steps == -1)[1] - 1
    lo = np.where(first == 0, -math.inf, _crossings(x, v, rows, first, first - 1, ztol))
    hi = np.where(last == x.size - 1, math.inf, _crossings(x, v, rows, last, last + 1, ztol))
    intervals: list[list[tuple[float, float]]] = [[] for _ in t]
    for i, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
        intervals[i].append((a, b))
    return BoundaryCurve(t, intervals, _classify(intervals, float(np.max(np.diff(x)))))


def _crossings(x, v, rows, j_stop, j_cont, ztol) -> np.ndarray:
    """Where v crosses -ztol between each stop node and its continue neighbour (clipped to the grid)."""
    j_cont = np.clip(j_cont, 0, x.size - 1)
    v_stop, v_cont = v[rows, j_stop], v[rows, j_cont]
    denom = v_stop - v_cont
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((v_stop + ztol) / denom, 0.0, 1.0)
    return np.where(denom > 0.0, x[j_stop] + (x[j_cont] - x[j_stop]) * frac, x[j_stop])


def _classify(intervals: list[list[tuple[float, float]]], dx: float) -> str:
    """The shape every slice fits; two-sided slices must be centred within 2 dx of 0."""
    kinds = {_slice_kind(segs)[0] for segs in intervals}
    if kinds <= {"full"}:
        return "all_stop"
    if "lower" in kinds and kinds <= {"empty", "full", "lower"}:
        return "one_sided_lower"
    if "upper" in kinds and kinds <= {"empty", "full", "upper"}:
        return "one_sided_upper"
    centred = all(
        abs(0.5 * (segs[1][0] + segs[0][1])) <= 2.0 * dx
        for segs in intervals
        if _slice_kind(segs)[0] == "two_sided"
    )
    if kinds <= {"empty", "full", "two_sided"} and centred:
        return "two_sided_symmetric"
    return "general"


@dataclass
class MonotonicityReport:
    passed: bool
    worst_value_violation: float
    nesting_violations: int
    value_tol: float
    zero_tol: float


def monotonicity_report(grid: ValueGrid) -> MonotonicityReport:
    """Check that v is non-decreasing in t pointwise and stopping slices are nested."""
    ztol = grid.config.zero_tol
    vtol = 10.0 * grid.config.obstacle_tol
    diffs = grid.values[:-1] - grid.values[1:]  # positive entries violate monotonicity
    worst = float(max(np.max(diffs), 0.0)) if diffs.size else 0.0
    mask = grid.values >= -ztol
    nest_bad = int(np.sum(mask[:-1] & ~mask[1:]))
    return MonotonicityReport(
        passed=(worst <= vtol and nest_bad == 0),
        worst_value_violation=worst,
        nesting_violations=nest_bad,
        value_tol=vtol,
        zero_tol=ztol,
    )


class OrderingReport(NamedTuple):
    passed: bool
    worst_violation: float
    n_common_t: int
    n_common_x: int


def _common_indices(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    ia, ib = [], []
    j = 0
    for i, av in enumerate(a):
        while j < b.size and b[j] < av - tol:
            j += 1
        if j < b.size and abs(b[j] - av) <= tol:
            ia.append(i)
            ib.append(j)
            j += 1
    return np.array(ia, dtype=int), np.array(ib, dtype=int)


def compare_value_ordering(
    grid1: ValueGrid, grid2: ValueGrid, tol: float = 1e-8, psi_tol: float = 1e-8
) -> OrderingReport:
    """Check v1 <= v2 on common nodes, given the dispersion ordering Psi1 >= Psi2.

    The dispersion premise is verified first on the common lattice and a
    violation is rejected with its location; the value comparison then runs
    pointwise.  Grids must overlap on at least a 2 x 2 sub-lattice.
    """
    t_tol = 1e-9 * max(1.0, float(grid1.t_nodes[-1]), float(grid2.t_nodes[-1]))
    x_scale = max(1.0, float(np.max(np.abs(grid1.x_nodes))), float(np.max(np.abs(grid2.x_nodes))))
    it1, it2 = _common_indices(grid1.t_nodes, grid2.t_nodes, t_tol)
    ix1, ix2 = _common_indices(grid1.x_nodes, grid2.x_nodes, 1e-9 * x_scale)
    if it1.size < 2 or ix1.size < 2:
        raise ValueError("grids do not share enough (t, x) nodes to compare")
    p1 = grid1.psi_values[np.ix_(it1, ix1)]
    p2 = grid2.psi_values[np.ix_(it2, ix2)]
    gap = p2 - p1
    if np.max(gap) > psi_tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ValueError(
            "dispersion ordering premise fails at "
            f"(t={grid1.t_nodes[it1[i]]!r}, x={grid1.x_nodes[ix1[j]]!r}): "
            f"Psi1={p1[i, j]!r} < Psi2={p2[i, j]!r}"
        )
    v1 = grid1.values[np.ix_(it1, ix1)]
    v2 = grid2.values[np.ix_(it2, ix2)]
    worst = float(np.max(v1 - v2))
    return OrderingReport(
        passed=(worst <= tol), worst_violation=worst, n_common_t=int(it1.size), n_common_x=int(ix1.size)
    )


class RegionCheck(NamedTuple):
    passed: bool
    detail: str
    n_checked: int
    n_violations: int


def bernoulli_comparison_check(grid: ValueGrid, beta: float, table: QuadratureTable) -> RegionCheck:
    """Compare the grid's continuation region against the two-point benchmark.

    Case (i): support inside [-beta, beta] implies continuation inside
    (-a(beta), a(beta)).  Case (ii): support outside (-beta, beta) on both
    sides implies continuation contains (-a(beta), a(beta)).  Rejected when
    neither support relationship applies.
    """
    ztol = grid.config.zero_tol
    nodes = table.nodes
    inside = np.all(np.abs(nodes) <= beta + 1e-12)
    outside = (
        np.all(np.abs(nodes) >= beta - 1e-12)
        and np.any(nodes <= -beta + 1e-12)
        and np.any(nodes >= beta - 1e-12)
    )
    if not inside and not outside:
        raise ValueError(
            "support is neither contained in [-beta, beta] nor disjoint from (-beta, beta)"
        )
    sol = bernoulli_solve(beta, grid.c)
    a = sol.boundary_a
    dx = float(np.max(np.diff(grid.x_nodes)))
    x = grid.x_nodes

    if inside:
        a_val = 0.0 if a is None else a
        sel = np.abs(x) >= a_val + dx
        region = grid.values[:, sel]
        bad = int(np.sum(region < -ztol))
        return RegionCheck(
            passed=(bad == 0),
            detail=f"case (i): require stopping beyond |x| >= {a_val + dx!r}",
            n_checked=int(region.size),
            n_violations=bad,
        )
    if a is None:
        return RegionCheck(True, "case (ii) with no benchmark continuation: vacuous", 0, 0)
    sel = np.abs(x) <= a - dx
    region = grid.values[:, sel]
    bad = int(np.sum(region >= -ztol))
    return RegionCheck(
        passed=(bad == 0),
        detail=f"case (ii): require continuation inside |x| <= {a - dx!r}",
        n_checked=int(region.size),
        n_violations=bad,
    )


def locally_good_check(grid: ValueGrid) -> RegionCheck:
    """Nodes where Psi^2 clearly exceeds c must lie in the continuation region.

    The margin is the dispersion-squared variation over one spatial cell, so
    only nodes robustly above the cost rate are required to continue.
    """
    ztol = grid.config.zero_tol
    c = grid.c
    psi2 = grid.psi_values**2
    margin = np.zeros_like(psi2)
    margin[:, 1:] = np.abs(psi2[:, 1:] - psi2[:, :-1])
    margin[:, :-1] = np.maximum(margin[:, :-1], np.abs(psi2[:, 1:] - psi2[:, :-1]))
    # absolute floor keeps exact-equality cases (Psi^2 == c to roundoff) out
    must_continue = psi2 > c + margin + 1e-12 * (1.0 + c)
    bad = int(np.sum(must_continue & (grid.values >= -ztol)))
    return RegionCheck(
        passed=(bad == 0),
        detail=f"nodes with Psi^2 > c + cell margin: {int(np.sum(must_continue))}",
        n_checked=int(np.sum(must_continue)),
        n_violations=bad,
    )
