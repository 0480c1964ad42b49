"""Dispersion function of the conditional-mean diffusion.

The conditional mean x = G(t, y) is, for each fixed t, a strictly increasing
bijection from the real observation levels y onto the open interval I between
the support bounds of the prior.  The dispersion function

    Psi(t, x) = H(t, G_t^{-1}(x))

re-expresses the posterior variance in the coordinate of the estimate itself;
it is simultaneously the local variance of the estimate process and the rate
at which estimation error is ground down.  This module inverts the bijection,
tabulates Psi on grids, and provides finite-difference residual diagnostics
for the three parabolic identities satisfied by G, H and Psi.

Since dG/dy = H, one kernel call gives the residual G - x, Newton's derivative
and, at the accepted y, Psi itself.  Brackets are built lazily and grid rows
start from the two rows before them, so a row costs one or two kernel calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .csvio import write_table_csv
from .prior import QuadratureTable, posterior_mean_var

__all__ = [
    "InversionError",
    "PsiGrid",
    "PdeResiduals",
    "invertible_interval",
    "clamp_to_interior",
    "invert_G",
    "psi",
    "psi_grid",
    "pde_residuals",
]

# clamp clearance, relative to the width of the invertible node interval
_ENDPOINT_CLEARANCE = 1e-9
# the inversion never evaluates beyond |y| = _Y_LIMIT (140 doublings of a unit step)
_Y_LIMIT = 2.0**140


class InversionError(RuntimeError):
    """Raised when the observation level cannot be bracketed or refined."""


def invertible_interval(table: QuadratureTable) -> tuple[float, float]:
    """Open interval of posterior means reachable on this table.

    On a discrete table the posterior mean saturates at the extreme nodes (not
    at the underlying support bounds, which may lie further out or at
    infinity), so (nodes[0], nodes[-1]) is exactly where the inversion is
    well-posed.
    """
    return float(table.nodes[0]), float(table.nodes[-1])


def clamp_to_interior(table: QuadratureTable, x: float) -> tuple[float, bool]:
    """Pull x strictly inside the invertible interval, flagging when moved.

    The bijection maps the interval endpoints to infinite observation levels,
    so grid points must never sit exactly on them.  Points outside the closed
    support interval, or exactly on a finite support endpoint, are rejected;
    points between a support bound and the nearest node (possible for
    tail-truncated continuous families) are clamped inward with the flag set.
    """
    s_lo, s_hi = table.support_bounds
    x = float(x)
    if x < s_lo or x > s_hi:
        raise ValueError(f"x={x!r} lies outside the support interval [{s_lo!r}, {s_hi!r}]")
    if (x == s_lo and math.isfinite(s_lo)) or (x == s_hi and math.isfinite(s_hi)):
        raise ValueError(f"x={x!r} sits on a finite support endpoint; the inverse is infinite")
    lo, hi = invertible_interval(table)
    eps = _ENDPOINT_CLEARANCE * (hi - lo)
    if x < lo + eps:
        return lo + eps, True
    if x > hi - eps:
        return hi - eps, True
    return x, False


def invert_G(table: QuadratureTable, t: float, x: float, tol: float = 1e-10) -> float:
    """Observation level y with |G(t, y) - x| <= tol: ``_invert_array`` at one point."""
    return _invert_point(table, t, x, tol)[0]


def psi(table: QuadratureTable, t: float, x: float, tol: float = 1e-10) -> float:
    """Dispersion Psi(t, x): posterior variance at the inverted observation level."""
    return _invert_point(table, t, x, tol)[1]


def _invert_point(table: QuadratureTable, t: float, x: float, tol: float) -> tuple[float, float]:
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x, _ = clamp_to_interior(table, x)
    y, h = _invert_array(table, t, np.array([x]), tol)
    return float(y[0]), float(h[0])


def _invert_array(
    table: QuadratureTable,
    t: float,
    x: np.ndarray,
    tol: float,
    y0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inversion of G(t, .) at many x; returns y and H(t, y).

    The first kernel call is at ``y0`` (zeros when not given).  Every call
    narrows a per-point bracket, begun at (-inf, +inf), by the sign of G - x.
    A Newton step (dG/dy = H) is taken when it lands inside the bracket and
    within +-_Y_LIMIT; otherwise a finite bracket is bisected and an open one
    expanded from the current point by a step that doubles each time.  An x
    that cannot be bracketed (at or beyond an extreme node) expands past
    _Y_LIMIT and raises ``InversionError``; the kernel never sees a non-finite y.
    """
    y = np.zeros(x.size) if y0 is None else np.array(y0, dtype=float)
    h = np.empty(x.size)
    lo = np.full(x.size, -np.inf)
    hi = np.full(x.size, np.inf)
    reach = np.ones(x.size)
    act = np.arange(x.size)
    for _ in range(400):
        ya = y[act]
        g, ha = posterior_mean_var(table, t, ya)
        h[act] = ha
        f = g - x[act]
        live = np.abs(f) > tol
        if not live.any():
            return y, h
        act, ya, f, ha = act[live], ya[live], f[live], ha[live]
        above = f > 0.0
        hi[act] = np.where(above, ya, hi[act])
        lo[act] = np.where(above, lo[act], ya)
        la, ua = lo[act], hi[act]
        collapsed = ua - la <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ya))
        if collapsed.any():
            j = int(act[np.argmax(collapsed)])
            raise InversionError(f"bracket collapsed at x={x[j]!r} (t={t!r}) without meeting tol={tol!r}")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = ya - f / ha
        inside = (newton > la) & (newton < ua) & (np.abs(newton) <= _Y_LIMIT)
        bounded = np.isfinite(la) & np.isfinite(ua)
        grow = ~inside & ~bounded
        step = np.where(above, -reach[act], reach[act])
        y[act] = np.where(inside, newton, np.where(bounded, 0.5 * (la + ua), ya + step))
        lost = grow & (np.abs(y[act]) > _Y_LIMIT)
        if lost.any():
            j = int(act[np.argmax(lost)])
            raise InversionError(f"could not bracket x={x[j]!r} at t={t!r}: G(t, y) - x keeps one sign")
        reach[act] = np.where(grow, 2.0 * reach[act], reach[act])
    raise InversionError(f"vectorized inversion did not converge at t={t!r}")


def stationary_psi(table: QuadratureTable, x) -> np.ndarray:
    """Limit of Psi(t, x) as t -> infinity: (x - u_i)(u_{i+1} - x) between the
    neighbouring nodes u_i <= x <= u_{i+1}, where the posterior ends up split."""
    u = table.nodes
    x = np.asarray(x, dtype=float)
    i = np.clip(np.searchsorted(u, x) - 1, 0, u.size - 2)
    return np.maximum((x - u[i]) * (u[i + 1] - x), 0.0)


@dataclass
class PsiGrid:
    """Tabulated dispersion surface.

    ``values[i, j] = Psi(t_nodes[i], x_nodes[j])`` and ``stationary[j]`` is the
    t -> infinity limit at x_nodes[j].
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    values: np.ndarray
    stationary: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t_nodes = np.asarray(self.t_nodes, dtype=float)
        self.x_nodes = np.asarray(self.x_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.stationary = np.asarray(self.stationary, dtype=float)
        if self.values.shape != (self.t_nodes.size, self.x_nodes.size):
            raise ValueError("values shape must be (len(t_nodes), len(x_nodes))")
        if self.stationary.shape != self.x_nodes.shape:
            raise ValueError("stationary shape must match x_nodes")

    def worst_time_monotonicity_violation(self) -> float:
        """Largest increase of Psi along the time axis (theory says none)."""
        if self.t_nodes.size < 2:
            return 0.0
        return float(np.max(np.diff(self.values, axis=0)))

    def to_csv(self, path) -> None:
        write_table_csv(path, self.t_nodes, self.x_nodes, self.values)


def psi_grid(
    table: QuadratureTable,
    t_nodes,
    x_nodes,
    tol: float = 1e-10,
) -> PsiGrid:
    """Tabulate Psi over a (t, x) lattice, warm-starting inversions row by row.

    Row i starts from 2 y_{i-1} - y_{i-2} (row 1 from y_0, row 0 from 0): exact
    for Gaussian priors, whose inverse is linear in t, and O(dt^2) off otherwise
    on uniform rows.  The values are the H that ``_invert_array`` returns.
    """
    t_arr = np.asarray(t_nodes, dtype=float)
    x_arr = np.asarray(x_nodes, dtype=float)
    if t_arr.ndim != 1 or x_arr.ndim != 1:
        raise ValueError("t_nodes and x_nodes must be 1-d")
    if np.any(np.diff(t_arr) <= 0.0) or np.any(np.diff(x_arr) <= 0.0):
        raise ValueError("t_nodes and x_nodes must be strictly increasing")

    clamped = 0
    x_eval = np.empty_like(x_arr)
    for j, xv in enumerate(x_arr):
        x_eval[j], moved = clamp_to_interior(table, xv)
        clamped += int(moved)

    values = np.empty((t_arr.size, x_arr.size))
    y_prev = y_start = None
    for i, ti in enumerate(t_arr):
        y, values[i] = _invert_array(table, float(ti), x_eval, tol, y0=y_start)
        y_start = y if y_prev is None else 2.0 * y - y_prev
        y_prev = y
    return PsiGrid(
        t_nodes=t_arr,
        x_nodes=x_arr,
        values=values,
        stationary=stationary_psi(table, x_eval),
        meta={"tol": tol, "clamped_points": clamped},
    )


class PdeResiduals(NamedTuple):
    burgers: float
    variance_pde: float
    psi_pde: float


def pde_residuals(table: QuadratureTable, t: float, point: float, h: float) -> PdeResiduals:
    """Central-difference residuals of the three filtering identities.

    At (t, y=point): the backwards Burgers residual dG + (1/2) D2G + G*DG and
    the variance residual dH + (1/2) D2H + G*DH + H^2, stencils in y.  At
    (t, x=point): the dispersion residual dPsi + Psi^2 ((1/2) D2Psi + 1),
    stencil in x.  All three vanish analytically; the returned numbers decay
    at second order in h.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if t - h <= 0.0:
        raise ValueError(f"stencil leaves the domain: t - h = {t - h!r} <= 0")

    y = float(point)
    g_c, h_c = posterior_mean_var(table, t, np.array([y - h, y, y + h]))
    g_tm, h_tm = posterior_mean_var(table, t - h, y)
    g_tp, h_tp = posterior_mean_var(table, t + h, y)

    dG = (g_tp[0] - g_tm[0]) / (2.0 * h)
    DG = (g_c[2] - g_c[0]) / (2.0 * h)
    D2G = (g_c[2] - 2.0 * g_c[1] + g_c[0]) / (h * h)
    burgers = dG + 0.5 * D2G + g_c[1] * DG

    dH = (h_tp[0] - h_tm[0]) / (2.0 * h)
    DH = (h_c[2] - h_c[0]) / (2.0 * h)
    D2H = (h_c[2] - 2.0 * h_c[1] + h_c[0]) / (h * h)
    variance = dH + 0.5 * D2H + g_c[1] * DH + h_c[1] ** 2

    x = float(point)
    lo, hi = invertible_interval(table)
    if not (lo < x - h and x + h < hi):
        raise ValueError(f"x stencil [{x - h!r}, {x + h!r}] leaves the invertible interval")
    # the second difference divides the inversion error by h^2: invert tightly
    p_c = psi(table, t, x, tol=1e-12)
    p_xm = psi(table, t, x - h, tol=1e-12)
    p_xp = psi(table, t, x + h, tol=1e-12)
    p_tm = psi(table, t - h, x, tol=1e-12)
    p_tp = psi(table, t + h, x, tol=1e-12)
    dPsi = (p_tp - p_tm) / (2.0 * h)
    D2Psi = (p_xp - 2.0 * p_c + p_xm) / (h * h)
    psi_res = dPsi + p_c**2 * (0.5 * D2Psi + 1.0)

    return PdeResiduals(burgers=float(burgers), variance_pde=float(variance), psi_pde=float(psi_res))
