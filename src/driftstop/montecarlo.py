"""Exact-filtering Monte Carlo for the observation/estimate system.

Paths draw a true drift from the quadrature table, evolve the observation
Y(t) = X t + W(t) with Gaussian increments, and filter by re-evaluating the
posterior mean at every monitored time from the pair (t, Y(t)) directly; there
is no Euler scheme on the estimate dynamics, so discretization enters only
through the stopping-time grid and the trapezoid rule on path integrals.

Every rule is a BoundaryCurve, and the walk asks the curve every question
about it: a deterministic time is ``BoundaryCurve.stop_at``, the first step a
rule can stop and the last it can reach come from ``BoundaryCurve.stop_steps``,
and ``BoundaryCurve.contains``, with one time per step of a span, is the
walk's stop test.  A rule stops a path at the first monitored step where the
filtered estimate lies in one of its stopping intervals, so the kernel's
estimate decides every stop; the steps before any curve has a stopping
interval are filtered with no rule test.

Randomness is counter-based.  Path i's Wiener steps come in blocks of
``_BLOCK``: block b holds steps b * _BLOCK + 1 to (b + 1) * _BLOCK and is the
Philox stream of key (seed, i) from counter (0, 0, b, 0).  Block 0, from
counter 0, gives the drift's uniform first and then its normals.  A Philox
stream is fully defined by its key and counter, so one bit generator per
chunk, re-keyed once per path and block, draws every block with no stream
position kept between blocks and nothing drawn twice; blocks are drawn lazily
and never past the last step a rule can reach.  ``_BLOCK`` is thus part of the
stream layout: changing it changes every path past its first block.  Paths are
walked in fixed chunks of consecutive indices.  Within a chunk the kernel runs
only on the paths some rule still needs, in one call per span of whole steps:
as many steps as keep table nodes x cells within ``_NODE_COLUMNS``, at least
one, so a small table covers several steps per call.  Reruns with the same
SimConfig are bit-identical, and a path's draws depend neither on its chunk
nor on the horizon.  The kernel's per-column round-off can depend on which
columns share a call (BLAS and summation order at large node counts, and the
node band set by the call's extreme cells), so per-path values are not
guaranteed to be independent of which paths are walked together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prior import QuadratureTable, posterior_mean_var
from .stopping_solver import BoundaryCurve

__all__ = [
    "SimConfig",
    "CostEstimate",
    "PathBatch",
    "PathStats",
    "VarianceIdentityReport",
    "PerturbationResult",
    "simulate_paths",
    "evaluate_policy",
    "verify_variance_identity",
    "policy_optimality_gap",
]

_CHUNK = 4096
_BLOCK = 256  # Wiener steps per Philox block, part of the stream layout: a walk holds _CHUNK x _BLOCK values
_NODE_COLUMNS = 2**16  # table nodes x columns of a kernel call that spans several steps


@dataclass(frozen=True)
class SimConfig:
    """Path count, monitoring step, horizon cap, and the 64-bit stream seed."""

    n_paths: int
    dt: float
    horizon: float
    seed: int

    def __post_init__(self) -> None:
        for name in ("dt", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step dt")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass
class PathBatch:
    """Monitored trajectories: times, drawn drifts, observations, estimates, dispersions."""

    t: np.ndarray
    x_true: np.ndarray
    y: np.ndarray
    x_hat: np.ndarray
    psi: np.ndarray

    def to_csv(self, path) -> None:
        """One row per path and time; each array is converted to Python floats once."""
        t = list(map(repr, np.asarray(self.t, dtype=float).tolist()))
        cols = [np.asarray(a, dtype=float).tolist() for a in (self.y, self.x_hat, self.psi, self.x_true)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path,t,y,x_hat,psi,x_true\n")
            for p, (y, x_hat, psi, x_true) in enumerate(zip(*cols)):
                tail = f",{x_true!r}\n"
                rows = zip(t, y, x_hat, psi)
                fh.write("".join([f"{p},{tk},{yk!r},{xk!r},{sk!r}{tail}" for tk, yk, xk, sk in rows]))


def _rekey(gen: np.random.Generator, seed: int, path: int, block: int) -> None:
    """Re-key ``gen``'s Philox bit generator, through its public ``state`` setter,
    to block ``block`` of path ``path``: key (seed, path) at counter (0, 0, block, 0)."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, block, 0), "key": (seed, path)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # an empty buffer
        "has_uint32": 0,
        "uinteger": 0,
    }


def _path_streams(
    gen: np.random.Generator, table: QuadratureTable, seed: int, start: int, count: int, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drift draws for paths [start, start+count) and their W at steps 0 to
    ``n_steps`` <= ``_BLOCK`` (column k holds W at step k, so column 0 holds W(0) = 0).

    This is each path's block 0, its Philox key (seed, path index) at counter 0,
    loaded by re-keying ``gen``: the drift's uniform first, then the normals of
    steps 1 to ``n_steps``.
    """
    random, normals = gen.random, gen.standard_normal
    u = np.empty(count)
    z = np.zeros((count, n_steps + 1))
    for i, row in enumerate(z[:, 1:]):
        _rekey(gen, seed, start + i, 0)
        u[i] = random()
        normals(out=row)
    drawn = np.minimum(np.searchsorted(np.cumsum(table.weights), u, side="right"), table.n - 1)
    return table.nodes[drawn], _cumulate(z, 0.0, dt)


def _wiener_block(
    gen: np.random.Generator, seed: int, paths: np.ndarray, block: int, w_last: np.ndarray, n_steps: int, dt: float
) -> np.ndarray:
    """The first ``n_steps`` values of W in block ``block`` >= 1, steps ``block * _BLOCK + 1`` on,
    for the given path indices, which stand at ``w_last``.

    The block's normals start its own Philox counter (0, 0, block, 0) under the
    path's key, so one re-key of ``gen`` per path draws them, from no stream
    position kept since the path's last block.
    """
    normals = gen.standard_normal
    z = np.empty((paths.size, n_steps))
    for i, row in zip(paths.tolist(), z):
        _rekey(gen, seed, i, block)
        normals(out=row)
    return _cumulate(z, w_last, dt)


def _cumulate(z: np.ndarray, w_last: float | np.ndarray, dt: float) -> np.ndarray:
    """W from standard normal increments ``z`` (one row per path, at least one column)
    continuing from ``w_last``, in place.

    The sum runs left to right from ``w_last``, so every W(t) has the bits of
    one cumulative sum over all of the path's steps, however they are split
    into blocks.
    """
    z *= math.sqrt(dt)
    z[:, 0] += w_last
    return np.cumsum(z, axis=1, out=z)


@dataclass(frozen=True)
class PathStats:
    """Per-path results of walking one policy: one entry per simulated path."""

    tau: np.ndarray
    sq_err: np.ndarray
    psi_at_stop: np.ndarray
    integral_psi2: np.ndarray
    capped: np.ndarray
    second_diff_sum: np.ndarray


@dataclass(frozen=True)
class CostEstimate:
    """One Monte Carlo pass: the base rule's cost and the per-path results of every rule.

    ``paths[0]`` belongs to the base rule and ``paths[i]`` to ``shifts[i - 1]``;
    ``verify_variance_identity`` and ``policy_optimality_gap`` reduce this record.
    """

    mean: float
    std_error: float
    n_paths: int
    components: tuple[float, float]  # (estimation error term, c*tau term)
    cap_fraction: float
    warning: str | None
    c: float
    dt: float
    shifts: tuple[float, ...]
    paths: tuple[PathStats, ...]


def _running_sum(start: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Turn row j of ``inc`` into start + inc[0] + ... + inc[j], in place, added
    left to right as a step-by-step walk adds them."""
    for row in inc:
        start = np.add(start, row, out=row)
    return inc


def _walk_chunk(
    table: QuadratureTable,
    sim: SimConfig,
    sl: slice,
    curves: list[BoundaryCurve],
    first: int,
    reach: int,
    out: list[PathStats],
) -> None:
    """Simulate the paths of one chunk and walk every rule on them, writing ``out[r][sl]``.

    No rule has a stopping interval before step ``first`` or walks past step
    ``reach``.  The walk takes a span of whole steps at a time, as many as
    keep table nodes x working paths x steps within ``_NODE_COLUMNS``, at
    least one; step 0, where Y = 0, is a span of its own.  One kernel call
    filters every working path on every step of the span, a step x path
    block of levels with one time per row, and the path integrals are summed
    along the span from their carried values (the trapezoid from step 1, the
    second difference from step 2).  On a span that reaches step ``first``
    each live rule then stops a path at the first step of the span where its
    x_hat lies in a stopping interval, as ``BoundaryCurve.contains`` tells
    on the block, or at the horizon.  Only the working set, the paths still live in some rule, is
    drawn and filtered: it shrinks as paths stop, and the walk ends when it is
    empty.  Every path draws block 0 up front; the working set draws each
    later block as the walk enters it, by its own counter.
    """
    n_steps, dt = sim.n_steps, sim.dt
    times = sim.times()
    gen = np.random.Generator(np.random.Philox(0))  # re-keyed before every block
    x, w_block = _path_streams(gen, table, sim.seed, sl.start, sl.stop - sl.start, min(_BLOCK, reach), dt)
    k0 = 0  # w_block[:, k - k0] holds W at step k
    rows = np.arange(x.size)  # row of w_block for each working path
    paths = np.arange(x.size)  # chunk index of each working path
    live = np.ones((len(curves), x.size), dtype=bool)
    integral_psi2 = np.zeros(x.size)
    second_diff_sum = np.zeros(x.size)
    psi2_prev2 = psi2_prev = np.zeros(x.size)  # Psi^2 two steps and one step back
    budget = _NODE_COLUMNS // table.n
    k = 0
    while True:
        if k - k0 == w_block.shape[1]:
            w_block = _wiener_block(
                gen, sim.seed, sl.start + paths, k // _BLOCK, w_block[rows, -1], min(_BLOCK, reach + 1 - k), dt
            )
            k0, rows = k, np.arange(paths.size)
        span = 1 if k == 0 else min(max(budget // paths.size, 1), k0 + w_block.shape[1] - k)
        t_span, w = times[k : k + span], w_block[:, k - k0 : k - k0 + span]
        y = np.multiply.outer(t_span, x) + (w if rows.size == w.shape[0] else w[rows]).T
        g, h = posterior_mean_var(table, t_span[:, None], y)
        psi2 = h * h
        back = np.concatenate([psi2_prev2[None], psi2_prev[None], psi2])
        inc = 0.5 * dt * (back[1:-1] + back[2:])
        d2 = np.abs(back[2:] - 2.0 * back[1:-1] + back[:-2])
        inc[: max(1 - k, 0)], d2[: max(2 - k, 0)] = 0.0, 0.0  # the trapezoid starts at step 1, d2 at step 2
        integral, second_diff = _running_sum(integral_psi2, inc), _running_sum(second_diff_sum, d2)
        psi2_prev2 = psi2[-2] if span > 1 else psi2_prev
        psi2_prev, integral_psi2, second_diff_sum = psi2[-1], integral[-1], second_diff[-1]
        k += span
        if k <= first:  # no rule can stop on the span, which ends before the horizon (first <= n_steps)
            continue
        for curve, lv, stats in zip(curves, live, out):
            idx = np.flatnonzero(lv)
            inside = curve.contains(t_span, g[:, idx])  # step x path
            hit = inside.any(axis=0)
            stop = hit | (k > n_steps)  # force-stop whatever is left at the horizon
            idx, j, capped = idx[stop], np.where(hit, inside.argmax(axis=0), span - 1)[stop], ~hit[stop]
            at = sl.start + paths[idx]
            stats.tau[at] = t_span[j]
            stats.sq_err[at] = (x[idx] - g[j, idx]) ** 2
            stats.psi_at_stop[at] = h[j, idx]
            stats.integral_psi2[at] = integral[j, idx]
            stats.second_diff_sum[at] = second_diff[j, idx]
            stats.capped[at] = capped
            lv[idx] = False
        needed = live.any(axis=0)
        if not needed.any():
            break
        if not needed.all():
            paths, x, rows, live = paths[needed], x[needed], rows[needed], live[:, needed]
            integral_psi2, second_diff_sum = integral_psi2[needed], second_diff_sum[needed]
            psi2_prev, psi2_prev2 = psi2_prev[needed], psi2_prev2[needed]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.mean(values))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(n))


def simulate_paths(table: QuadratureTable, sim: SimConfig) -> PathBatch:
    """Full monitored trajectories (memory scales with n_paths * n_steps), drawn
    block by block from the same per-path streams as ``evaluate_policy``'s walk."""
    n_steps = sim.n_steps
    t = sim.times()
    x_true = np.empty(sim.n_paths)
    y = np.empty((sim.n_paths, n_steps + 1))
    for start in range(0, sim.n_paths, _CHUNK):
        rows = slice(start, min(start + _CHUNK, sim.n_paths))
        gen = np.random.Generator(np.random.Philox(0))  # re-keyed before every block
        x, w = _path_streams(gen, table, sim.seed, start, rows.stop - start, min(_BLOCK, n_steps), sim.dt)
        x_true[rows] = x
        y[rows, : w.shape[1]] = x[:, None] * t[: w.shape[1]] + w
        paths = np.arange(start, rows.stop)
        for k0 in range(_BLOCK + 1, n_steps + 1, _BLOCK):  # block k0 // _BLOCK holds steps k0 on
            w = _wiener_block(gen, sim.seed, paths, k0 // _BLOCK, w[:, -1], min(_BLOCK, n_steps + 1 - k0), sim.dt)
            y[rows, k0 : k0 + w.shape[1]] = x[:, None] * t[k0 : k0 + w.shape[1]] + w
    x_hat = np.empty_like(y)
    psi = np.empty_like(y)
    for k in range(n_steps + 1):
        g_k, h_k = posterior_mean_var(table, float(t[k]), y[:, k])
        x_hat[:, k] = g_k
        psi[:, k] = h_k
    return PathBatch(t=t, x_true=x_true, y=y, x_hat=x_hat, psi=psi)


def evaluate_policy(
    table: QuadratureTable, c: float, policy: float | BoundaryCurve, sim: SimConfig, shifts=()
) -> CostEstimate:
    """Expected cost of a stopping rule (squared estimation error plus c * tau),
    from one pass that also walks its shifted versions on the same paths.

    Every rule is walked as a BoundaryCurve, a deterministic time as the curve
    that stops everywhere from its first monitored step on.  A rule stops at
    the first monitored time where the filtered estimate x_hat lies in one of
    its stopping intervals, capped at the horizon with a cap-fraction
    diagnostic; a warning is attached above 1% capping.  Each shift moves a
    BoundaryCurve outward by ``shift`` (negative pulls it inward); for a
    deterministic-time rule the stopping time itself is shifted.  The draws
    end at the step from which every curve stops everywhere.
    """
    if c <= 0.0:
        raise ValueError("cost rate c must be positive")
    shifts = tuple(float(s) for s in shifts)
    times = sim.times()
    if isinstance(policy, BoundaryCurve):
        curves = [policy, *(policy.shifted(s) for s in shifts)]
    else:
        stop_times = (float(policy), *(max(float(policy) + s, 0.0) for s in shifts))
        curves = [BoundaryCurve.stop_at(t, times) for t in stop_times]
    n = sim.n_paths
    paths = [
        PathStats(
            tau=np.full(n, math.nan),
            sq_err=np.full(n, math.nan),
            psi_at_stop=np.full(n, math.nan),
            integral_psi2=np.zeros(n),
            capped=np.zeros(n, dtype=bool),
            second_diff_sum=np.zeros(n),
        )
        for _ in curves
    ]
    first, reach = zip(*(curve.stop_steps(times) for curve in curves))
    for start in range(0, n, _CHUNK):
        _walk_chunk(table, sim, slice(start, min(start + _CHUNK, n)), curves, min(first), max(reach), paths)
    base = paths[0]
    mean, se = _mean_se(base.sq_err + c * base.tau)
    cap_fraction = float(np.mean(base.capped))
    warning = None
    if cap_fraction > 0.01:
        warning = f"{cap_fraction:.2%} of paths hit the horizon cap; expected cost is biased"
    return CostEstimate(
        mean=mean,
        std_error=se,
        n_paths=sim.n_paths,
        components=(float(np.mean(base.sq_err)), float(np.mean(c * base.tau))),
        cap_fraction=cap_fraction,
        warning=warning,
        c=c,
        dt=sim.dt,
        shifts=shifts,
        paths=tuple(paths),
    )


@dataclass(frozen=True)
class VarianceIdentityReport:
    """Both sides of the stopped-variance identity with their error bars.

    lhs: sample mean of the dispersion at the stopping time.
    rhs: table variance minus the sample mean of the path integral of Psi^2.
    ``passed`` uses overlap of the 3-standard-error intervals plus an explicit
    trapezoid-bias allowance (the integral is exact only to O(dt^2), which
    matters when both sides are deterministic and the errors bars vanish).
    """

    passed: bool
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    paired_diff: float
    paired_se: float
    bias_allowance: float
    cap_fraction: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "lhs_mean_psi_at_stop": self.lhs,
            "lhs_se": self.lhs_se,
            "rhs_var_minus_integral": self.rhs,
            "rhs_se": self.rhs_se,
            "paired_diff": self.paired_diff,
            "paired_se": self.paired_se,
            "bias_allowance": self.bias_allowance,
            "cap_fraction": self.cap_fraction,
        }


def verify_variance_identity(table: QuadratureTable, estimate: CostEstimate) -> VarianceIdentityReport:
    """Check E[Psi(tau)] = Var(X) - E[int_0^tau Psi^2 ds] on the base rule's paths."""
    stats = estimate.paths[0]
    var_x = table.variance()
    lhs, lhs_se = _mean_se(stats.psi_at_stop)
    rhs_samples = var_x - stats.integral_psi2
    rhs, rhs_se = _mean_se(rhs_samples)
    diff, diff_se = _mean_se(stats.psi_at_stop - rhs_samples)
    # leading-order trapezoid error estimate, doubled to cover the next order
    # and the uncentred end intervals
    bias = float(2.0 * estimate.dt / 12.0 * np.mean(stats.second_diff_sum))
    passed = abs(lhs - rhs) <= 3.0 * (lhs_se + rhs_se) + bias + 1e-12
    return VarianceIdentityReport(
        passed=passed,
        lhs=lhs,
        lhs_se=lhs_se,
        rhs=rhs,
        rhs_se=rhs_se,
        paired_diff=diff,
        paired_se=diff_se,
        bias_allowance=bias,
        cap_fraction=estimate.cap_fraction,
    )


class PerturbationResult(NamedTuple):
    shift: float
    cost: float
    cost_se: float
    gap: float
    gap_se: float


def policy_optimality_gap(estimate: CostEstimate) -> list[PerturbationResult]:
    """Cost of the base rule against each shifted rule of ``estimate``, base entry first.

    Gaps are paired per path, so their standard errors reflect only the cost
    *differences*; a true local minimizer shows positive gaps.
    """
    base = estimate.paths[0]
    base_cost = base.sq_err + estimate.c * base.tau
    results = [PerturbationResult(0.0, estimate.mean, estimate.std_error, 0.0, 0.0)]
    for s, stats in zip(estimate.shifts, estimate.paths[1:]):
        cost = stats.sq_err + estimate.c * stats.tau
        gap, gap_se = _mean_se(cost - base_cost)
        results.append(PerturbationResult(s, *_mean_se(cost), gap, gap_se))
    return results
