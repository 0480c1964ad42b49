"""Exact-filtering Monte Carlo for the observation/estimate system.

Paths draw a true drift from the quadrature table, evolve the observation
Y(t) = X t + W(t) with Gaussian increments, and filter by re-evaluating the
posterior mean at every monitored time from the pair (t, Y(t)) directly; there
is no Euler scheme on the estimate dynamics, so discretization enters only
through the stopping-time grid and the trapezoid rule on path integrals.

Randomness is counter-based: each path owns the Philox stream of key
(seed, path index) from counter 0, drawn lazily in blocks of Wiener steps.
A Philox stream is fully defined by its key and counter, so one bit generator
per chunk, re-keyed for each path, draws every path's stream.  Paths are walked
in fixed chunks of consecutive indices, and within a chunk the kernel runs only
on the paths that some rule still needs, so reruns with the same SimConfig are
bit-identical.  The kernel's per-column round-off can depend on which columns
share a call (BLAS at large node counts, and the node band set by the call's
smallest and largest y), so per-path values are not guaranteed to be
independent of which paths are walked together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

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

Policy = Union[float, BoundaryCurve]

_CHUNK = 4096
_BLOCK = 256  # Wiener steps drawn per path at a time: a walk holds _CHUNK x _BLOCK values


@dataclass(frozen=True)
class SimConfig:
    """Path count, monitoring step, horizon cap, and the 64-bit stream seed."""

    n_paths: int
    dt: float
    horizon: float
    seed: int

    def __post_init__(self) -> None:
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


# where a path's Philox stream stands: its counter, four buffered 64-bit outputs,
# the next of them to use, and a held half of one for 32-bit draws
_POSITION = np.dtype(
    [("counter", "u8", 4), ("buffer", "u8", 4), ("buffer_pos", "i4"), ("has_uint32", "i4"), ("uinteger", "u4")]
)
_START = ((0, 0, 0, 0), (0, 0, 0, 0), 4, 0, 0)  # counter 0 and an empty buffer


class _Streams:
    """The Philox streams of paths [start, start + count), drawn through one bit generator.

    Path ``i`` owns the stream of key (seed, start + i) from counter 0, the one
    a fresh ``Generator(Philox(key=...))`` gives.  ``load`` re-keys the bit
    generator through its public ``state`` setter, at the stream's start or at
    a position ``save`` recorded in ``saved[i]``.
    """

    def __init__(self, seed: int, start: int, count: int) -> None:
        self.bits = np.random.Philox(0)  # re-keyed before every draw
        self.gen = np.random.Generator(self.bits)
        self.seed, self.start = seed, start
        self.saved = np.empty(count, _POSITION)

    def load(self, i: int, position: tuple = _START) -> None:
        counter, buffer, buffer_pos, has_uint32, uinteger = position
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": (self.seed, self.start + i)},
            "buffer": buffer,
            "buffer_pos": buffer_pos,
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }

    def save(self, i: int) -> None:
        st = self.bits.state
        self.saved[i] = (st["state"]["counter"], st["buffer"], st["buffer_pos"], st["has_uint32"], st["uinteger"])


def _path_streams(
    table: QuadratureTable, seed: int, start: int, count: int, n_steps: int, dt: float, keep: bool
) -> tuple[np.ndarray, np.ndarray, _Streams]:
    """Drift draws for paths [start, start+count), their W over the first ``n_steps`` steps,
    and their streams; when ``keep``, each path's position is saved where its next
    block of W begins.

    A path's stream is its Philox key (seed, path index) at counter 0, loaded by
    re-keying the chunk's one bit generator.  It gives the drift's uniform first
    and then the normals.  Positions are saved only when more blocks follow.
    """
    streams = _Streams(seed, start, count if keep else 0)
    random, normals = streams.gen.random, streams.gen.standard_normal
    u = np.empty(count)
    z = np.empty((count, n_steps))
    for i in range(count):
        streams.load(i)
        u[i] = random()
        normals(out=z[i])
        if keep:
            streams.save(i)
    drawn = np.minimum(np.searchsorted(np.cumsum(table.weights), u, side="right"), table.n - 1)
    return table.nodes[drawn], _cumulate(z, 0.0, dt), streams


def _wiener_block(streams: _Streams, paths: np.ndarray, w_last: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """The next ``n_steps`` values of W for the chunk's ``paths``, which stand at ``w_last``."""
    normals = streams.gen.standard_normal
    z = np.empty((paths.size, n_steps))
    for row, i in enumerate(paths.tolist()):
        streams.load(i, streams.saved[i].item())
        normals(out=z[row])
        streams.save(i)
    return _cumulate(z, w_last, dt)


def _cumulate(z: np.ndarray, w_last: float | np.ndarray, dt: float) -> np.ndarray:
    """W from standard normal increments ``z`` (one row per path) continuing from ``w_last``, in place.

    A stream drawn in blocks gives the same normals as in one call, and the sum
    runs left to right from ``w_last``, so every W(t) has the bits of one
    cumulative sum over all steps.
    """
    z *= math.sqrt(dt)
    z[:, 0] += w_last
    return np.cumsum(z, axis=1, out=z)


def _stops_now(policy: Policy, t_k: float, x_hat_col: np.ndarray) -> np.ndarray:
    if isinstance(policy, BoundaryCurve):
        return policy.contains(t_k, x_hat_col)
    return np.full(x_hat_col.shape, t_k >= float(policy) - 1e-12, dtype=bool)


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


def _walk_chunk(
    table: QuadratureTable, sim: SimConfig, sl: slice, policies: list[Policy], out: list[PathStats]
) -> None:
    """Simulate the paths of one chunk and walk every policy on them, writing ``out[p][sl]``.

    Only the working set, the paths still live in some policy, is filtered and
    drawn: it shrinks as paths stop, and the walk ends when it is empty.  The
    path integrals are shared by every policy and read off at each path's stop.
    """
    n_steps = sim.n_steps
    n_first = min(_BLOCK, n_steps)
    x, w_block, streams = _path_streams(
        table, sim.seed, sl.start, sl.stop - sl.start, n_first, sim.dt, keep=n_steps > n_first
    )
    k0 = 1  # w_block[:, k - k0] holds W at step k
    rows = np.arange(x.size)  # row of w_block for each working path
    paths = np.arange(x.size)  # chunk index of each working path
    live = np.ones((len(policies), x.size), dtype=bool)
    integral_psi2 = np.zeros(x.size)
    second_diff_sum = np.zeros(x.size)
    psi2_prev = np.zeros(x.size)  # read from step 1 on
    for k in range(n_steps + 1):
        if k - k0 == w_block.shape[1]:
            w_block = _wiener_block(streams, paths, w_block[rows, -1], min(_BLOCK, n_steps + 1 - k), sim.dt)
            k0, rows = k, np.arange(paths.size)
        t_k = k * sim.dt
        y_k = x * t_k + (w_block[rows, k - k0] if k > 0 else 0.0)
        g_k, h_k = posterior_mean_var(table, t_k, y_k)
        psi2_k = h_k * h_k
        if k >= 1:
            integral_psi2 += 0.5 * sim.dt * (psi2_prev + psi2_k)
            if k >= 2:
                second_diff_sum += np.abs(psi2_k - 2.0 * psi2_prev + psi2_prev2)
        for policy, lv, stats in zip(policies, live, out):
            if not lv.any():
                continue
            stop = _stops_now(policy, t_k, g_k) & lv
            if k == n_steps:
                stats.capped[sl.start + paths[lv & ~stop]] = True
                stop = lv.copy()  # force-stop whatever is left at the horizon
            if stop.any():
                at = sl.start + paths[stop]
                stats.tau[at] = t_k
                stats.sq_err[at] = (x[stop] - g_k[stop]) ** 2
                stats.psi_at_stop[at] = h_k[stop]
                stats.integral_psi2[at] = integral_psi2[stop]
                stats.second_diff_sum[at] = second_diff_sum[stop]
                lv[stop] = False
        needed = live.any(axis=0)
        if not needed.all():
            if not needed.any():
                break
            paths, x, rows, live = paths[needed], x[needed], rows[needed], live[:, needed]
            integral_psi2, second_diff_sum = integral_psi2[needed], second_diff_sum[needed]
            psi2_k, psi2_prev = psi2_k[needed], psi2_prev[needed]
        psi2_prev2 = psi2_prev
        psi2_prev = psi2_k


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.mean(values))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(n))


def simulate_paths(table: QuadratureTable, sim: SimConfig) -> PathBatch:
    """Full monitored trajectories (memory scales with n_paths * n_steps)."""
    n_steps = sim.n_steps
    t = sim.times()
    x_true = np.empty(sim.n_paths)
    y = np.empty((sim.n_paths, n_steps + 1))
    for start in range(0, sim.n_paths, _CHUNK):
        count = min(_CHUNK, sim.n_paths - start)
        xt, w_paths, _ = _path_streams(table, sim.seed, start, count, n_steps, sim.dt, keep=False)
        x_true[start : start + count] = xt
        y[start : start + count, 0] = 0.0
        y[start : start + count, 1:] = xt[:, None] * t[1:][None, :] + w_paths
    x_hat = np.empty_like(y)
    psi = np.empty_like(y)
    for k in range(n_steps + 1):
        g_k, h_k = posterior_mean_var(table, float(t[k]), y[:, k])
        x_hat[:, k] = g_k
        psi[:, k] = h_k
    return PathBatch(t=t, x_true=x_true, y=y, x_hat=x_hat, psi=psi)


def evaluate_policy(table: QuadratureTable, c: float, policy: Policy, sim: SimConfig, shifts=()) -> CostEstimate:
    """Expected cost of a stopping rule (squared estimation error plus c * tau),
    from one pass that also walks its shifted versions on the same paths.

    The rule stops at the first monitored time its condition holds (a
    BoundaryCurve containment or a deterministic time), capped at the horizon
    with a cap-fraction diagnostic; a warning is attached above 1% capping.
    Each shift moves a BoundaryCurve outward by ``shift`` (negative pulls it
    inward); for a deterministic-time rule the stopping time itself is shifted.
    """
    if c <= 0.0:
        raise ValueError("cost rate c must be positive")
    shifts = tuple(float(s) for s in shifts)
    if isinstance(policy, BoundaryCurve):
        shifted: list[Policy] = [policy.shifted(s) for s in shifts]
    else:
        shifted = [max(float(policy) + s, 0.0) for s in shifts]
    policies = [policy, *shifted]
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
        for _ in policies
    ]
    for start in range(0, n, _CHUNK):
        _walk_chunk(table, sim, slice(start, min(start + _CHUNK, n)), policies, paths)
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
