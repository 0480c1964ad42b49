import math
import tracemalloc

import numpy as np
import pytest

from driftstop import (
    BoundaryCurve,
    SimConfig,
    bernoulli_solve,
    evaluate_policy,
    gaussian_tau_star,
    policy_optimality_gap,
    simulate_paths,
    verify_variance_identity,
)
from driftstop import montecarlo


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=0, dt=0.01, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, dt=-0.01, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, dt=0.5, horizon=0.1, seed=1)


def test_reproducibility_and_chunk_independence(gaussian_table):
    sim = SimConfig(n_paths=300, dt=0.05, horizon=1.0, seed=123)
    a = simulate_paths(gaussian_table, sim)
    b = simulate_paths(gaussian_table, sim)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x_true, b.x_true)
    # paths are keyed by index: a longer run reproduces the shorter one exactly
    big = simulate_paths(gaussian_table, SimConfig(n_paths=700, dt=0.05, horizon=1.0, seed=123))
    assert np.array_equal(big.y[:300], a.y)


def test_estimate_starts_at_prior_mean(mixture_table):
    batch = simulate_paths(mixture_table, SimConfig(n_paths=50, dt=0.1, horizon=0.5, seed=5))
    assert np.allclose(batch.x_hat[:, 0], mixture_table.mean(), atol=1e-13)


def test_estimate_is_martingale(bernoulli_table):
    sim = SimConfig(n_paths=20_000, dt=0.05, horizon=2.0, seed=31)
    batch = simulate_paths(bernoulli_table, sim)
    m0 = bernoulli_table.mean()
    for k in range(0, sim.n_steps + 1, 10):
        col = batch.x_hat[:, k]
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - m0) <= 3.0 * se + 1e-12


def test_posterior_consistency_long_horizon(bernoulli_table):
    # the estimate converges to the true drift
    batch = simulate_paths(bernoulli_table, SimConfig(n_paths=2000, dt=0.25, horizon=50.0, seed=77))
    close = np.abs(batch.x_hat[:, -1] - batch.x_true) < 0.05
    assert close.mean() >= 0.99


def test_supermartingale_identity_along_time(bernoulli_table):
    # mean of Psi(t, Xhat(t)) + int_0^t Psi^2 stays equal to Var(X) within CI
    sim = SimConfig(n_paths=20_000, dt=0.05, horizon=3.0, seed=13)
    batch = simulate_paths(bernoulli_table, sim)
    psi2 = batch.psi**2
    var_x = bernoulli_table.variance()
    integral = np.zeros(sim.n_paths)
    for k in range(1, sim.n_steps + 1):
        integral += 0.5 * sim.dt * (psi2[:, k - 1] + psi2[:, k])
        if k % 12 == 0:
            m_vals = batch.psi[:, k] + integral
            se = m_vals.std(ddof=1) / math.sqrt(sim.n_paths)
            assert abs(m_vals.mean() - var_x) <= 3.0 * se + 1e-3 * sim.dt**2 + 1e-9


def test_total_dissipation_compact_support(bernoulli_table):
    # for the two-point prior the dispersion dies out exponentially fast, so
    # the full path integral of Psi^2 recovers the prior variance
    sim = SimConfig(n_paths=20_000, dt=0.05, horizon=30.0, seed=17)
    batch = simulate_paths(bernoulli_table, sim)
    psi2 = batch.psi**2
    integral = (0.5 * sim.dt * (psi2[:, :-1] + psi2[:, 1:])).sum(axis=1)
    se = integral.std(ddof=1) / math.sqrt(sim.n_paths)
    assert abs(integral.mean() - bernoulli_table.variance()) <= 3.0 * se + 1e-3


def test_stop_at_zero_recovers_prior_variance(gaussian_table):
    est = evaluate_policy(gaussian_table, 0.25, 0.0, SimConfig(n_paths=50_000, dt=0.05, horizon=1.0, seed=3))
    assert abs(est.mean - gaussian_table.variance()) <= 3.0 * est.std_error + 1e-12
    assert est.components[1] == 0.0
    assert est.cap_fraction == 0.0


def test_gaussian_tau_star_policy_cost(gaussian_table):
    # cost = c tau* + sigma^2/(1 + sigma^2 tau*) = 0.75 for sigma2=1, c=0.25
    tau = gaussian_tau_star(1.0, 0.25)
    est = evaluate_policy(gaussian_table, 0.25, tau, SimConfig(n_paths=20_000, dt=0.01, horizon=1.5, seed=11))
    assert abs(est.mean - 0.75) <= 3.0 * est.std_error


def test_cap_warning_when_policy_never_stops(bernoulli_table):
    # threshold beyond the state space is never reached
    policy = BoundaryCurve.symmetric_threshold(1.5)
    est = evaluate_policy(bernoulli_table, 0.25, policy, SimConfig(n_paths=500, dt=0.05, horizon=2.0, seed=2))
    assert est.cap_fraction == 1.0
    assert est.warning is not None


def test_variance_identity_stop_at_zero(mixture_table):
    est = evaluate_policy(mixture_table, 0.25, 0.0, SimConfig(n_paths=2000, dt=0.05, horizon=1.0, seed=19))
    rep = verify_variance_identity(mixture_table, est)
    assert rep.passed
    assert rep.lhs == pytest.approx(mixture_table.variance(), abs=1e-10)
    assert rep.rhs == pytest.approx(mixture_table.variance(), abs=1e-12)


def test_variance_identity_gaussian_deterministic(gaussian_table):
    # both sides are deterministic; the trapezoid allowance must absorb the
    # integration bias
    est = evaluate_policy(gaussian_table, 0.25, 1.0, SimConfig(n_paths=2000, dt=0.01, horizon=1.5, seed=23))
    rep = verify_variance_identity(gaussian_table, est)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5, abs=1e-10)


def test_variance_identity_bernoulli_boundary(bernoulli_table):
    a = bernoulli_solve(1.0, 0.25).boundary_a
    policy = BoundaryCurve.symmetric_threshold(a)
    est = evaluate_policy(bernoulli_table, 0.25, policy, SimConfig(n_paths=20_000, dt=0.01, horizon=30.0, seed=29))
    rep = verify_variance_identity(bernoulli_table, est)
    assert rep.passed
    assert abs(rep.paired_diff) <= 3.0 * rep.paired_se + rep.bias_allowance


def test_bernoulli_boundary_policy_cost(bernoulli_table):
    # expected cost of the optimal rule is Var(X) + u(x0) with x0 the prior mean
    sol = bernoulli_solve(1.0, 0.25)
    policy = BoundaryCurve.symmetric_threshold(sol.boundary_a)
    est = evaluate_policy(bernoulli_table, 0.25, policy, SimConfig(n_paths=30_000, dt=0.01, horizon=30.0, seed=59))
    expect = bernoulli_table.variance() + sol.u(0.0)
    # small extra slack for the grid-crossing overshoot of the stopping time
    assert abs(est.mean - expect) <= 3.0 * est.std_error + 5e-3


def test_policy_gap_zero_shift_is_exactly_zero(bernoulli_table):
    a = bernoulli_solve(1.0, 0.25).boundary_a
    policy = BoundaryCurve.symmetric_threshold(a)
    res = policy_optimality_gap(
        evaluate_policy(bernoulli_table, 0.25, policy, SimConfig(n_paths=2000, dt=0.02, horizon=20.0, seed=37), [0.0])
    )
    assert res[1].gap == 0.0 and res[1].gap_se == 0.0


def test_policy_gap_perturbations_increase_cost(bernoulli_table):
    a = bernoulli_solve(1.0, 0.25).boundary_a
    policy = BoundaryCurve.symmetric_threshold(a)
    res = policy_optimality_gap(
        evaluate_policy(
            bernoulli_table,
            0.25,
            policy,
            SimConfig(n_paths=30_000, dt=0.01, horizon=30.0, seed=41),
            [-0.05, 0.05],
        )
    )
    for r in res:
        if r.shift != 0.0:
            assert r.gap - 2.0 * r.gap_se > 0.0


def test_policy_gap_time_shifts_for_gaussian(gaussian_table):
    # the deterministic rule tau* is a local minimizer in the stopping time
    tau = gaussian_tau_star(1.0, 0.25)
    res = policy_optimality_gap(
        evaluate_policy(
            gaussian_table,
            0.25,
            tau,
            SimConfig(n_paths=20_000, dt=0.01, horizon=2.0, seed=43),
            [-0.25, 0.25],
        )
    )
    for r in res:
        if r.shift != 0.0:
            assert r.gap - 2.0 * r.gap_se > 0.0


def test_shifts_leave_base_cost_and_identity_unchanged(bernoulli_table):
    # the shifted rules ride on the same paths; the base rule's results must
    # not depend on them, bit for bit
    policy = BoundaryCurve.symmetric_threshold(bernoulli_solve(1.0, 0.25).boundary_a)
    sim = SimConfig(n_paths=2000, dt=0.02, horizon=20.0, seed=61)
    alone = evaluate_policy(bernoulli_table, 0.25, policy, sim)
    shifted = evaluate_policy(bernoulli_table, 0.25, policy, sim, [-0.05, 0.05])
    for field in ("mean", "std_error", "n_paths", "components", "cap_fraction", "warning"):
        assert getattr(shifted, field) == getattr(alone, field)
    assert verify_variance_identity(bernoulli_table, shifted) == verify_variance_identity(bernoulli_table, alone)
    assert len(shifted.paths) == 3 and shifted.shifts == (-0.05, 0.05)


def _bernoulli_rule_and_shifts():
    return BoundaryCurve.symmetric_threshold(bernoulli_solve(1.0, 0.25).boundary_a), [-0.05, 0.05]


def test_walk_filters_only_paths_some_rule_still_needs(bernoulli_table, monkeypatch):
    # a path is needed at step k while k <= its latest stop over the rules, so
    # the kernel sees exactly sum over paths of (latest stop step + 1) columns
    policy, shifts = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=5000, dt=0.02, horizon=20.0, seed=67)
    columns = []
    kernel = montecarlo.posterior_mean_var

    def counted(table, t, y):
        columns.append(np.size(y))
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", counted)
    est = evaluate_policy(bernoulli_table, 0.25, policy, sim, shifts)
    last_step = np.max([np.rint(stats.tau / sim.dt) for stats in est.paths], axis=0)
    assert sum(columns) == int(np.sum(last_step + 1))


def test_walk_memory_does_not_grow_with_the_horizon(bernoulli_table):
    # the horizon allows 3,000 steps; every path stops by about step 1,100, and
    # the Wiener values are drawn a block at a time for the paths still walking
    policy, shifts = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=4096, dt=0.01, horizon=30.0, seed=71)
    tracemalloc.start()
    try:
        evaluate_policy(bernoulli_table, 0.25, policy, sim, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _reference_walk(table, policy, sim):
    """Every path walked to its stop over full simulate_paths trajectories."""
    batch = simulate_paths(table, sim)
    psi2 = batch.psi * batch.psi
    n, n_steps = sim.n_paths, sim.n_steps
    ref = {name: np.full(n, math.nan) for name in ("tau", "sq_err", "psi_at_stop")}
    ref.update(integral_psi2=np.zeros(n), second_diff_sum=np.zeros(n), capped=np.zeros(n, dtype=bool))
    live = np.ones(n, dtype=bool)
    for k in range(n_steps + 1):
        t_k = k * sim.dt
        if k >= 1:
            ref["integral_psi2"][live] += 0.5 * sim.dt * (psi2[live, k - 1] + psi2[live, k])
        if k >= 2:
            ref["second_diff_sum"][live] += np.abs(psi2[live, k] - 2.0 * psi2[live, k - 1] + psi2[live, k - 2])
        stop = live & policy.contains(t_k, batch.x_hat[:, k])
        if k == n_steps:
            ref["capped"] = live & ~stop
            stop = live.copy()
        ref["tau"][stop] = t_k
        ref["sq_err"][stop] = (batch.x_true[stop] - batch.x_hat[stop, k]) ** 2
        ref["psi_at_stop"][stop] = batch.psi[stop, k]
        live &= ~stop
    return ref


@pytest.mark.parametrize("chunk", [montecarlo._CHUNK, 256])
def test_walk_matches_reference_walk_bit_for_bit(bernoulli_table, monkeypatch, chunk):
    # at q = 2 the kernel's columns do not interact, so dropping stopped paths
    # from the walk must leave every per-path result unchanged to the last bit;
    # the short horizon caps some paths of every rule, and chunks of 256 split
    # the 600 paths into three walks, the last one partial
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    policy, shifts = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=600, dt=0.02, horizon=3.0, seed=73)
    est = evaluate_policy(bernoulli_table, 0.25, policy, sim, shifts)
    for rule, stats in zip([policy] + [policy.shifted(s) for s in shifts], est.paths):
        ref = _reference_walk(bernoulli_table, rule, sim)
        assert 0 < ref["capped"].sum() < sim.n_paths
        for name, want in ref.items():
            assert np.array_equal(getattr(stats, name), want), name


def test_walk_draws_each_path_from_its_own_philox_stream(bernoulli_table, monkeypatch):
    # path i's stream is Generator(Philox(key=[seed, i])) from its start: the
    # drift from its first uniform, then W from its normals in order.  Chunks of
    # 64 put the 150 paths in three walks, and blocks of 16 steps make every
    # path that walks past step 16 resume its stream lazily, a block at a time,
    # after others have stopped; the kernel sees y = x t + W of each needed path
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    policy, _ = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=150, dt=0.02, horizon=4.0, seed=2**63 + 79)
    calls = []
    kernel = montecarlo.posterior_mean_var

    def recorded(table, t, y):
        calls.append((t, np.array(y, dtype=float, copy=True)))
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", recorded)
    est = evaluate_policy(bernoulli_table, 0.25, policy, sim)
    last_step = np.rint(est.paths[0].tau / sim.dt).astype(int)
    assert last_step.min() < 16 and last_step.max() > 3 * 16

    cum_w = np.cumsum(bernoulli_table.weights)
    x = np.empty(sim.n_paths)
    w = np.empty((sim.n_paths, sim.n_steps))
    for i in range(sim.n_paths):
        gen = np.random.Generator(np.random.Philox(key=np.array([sim.seed, i], dtype=np.uint64)))
        x[i] = bernoulli_table.nodes[np.searchsorted(cum_w, gen.random(), "right")]
        w[i] = np.cumsum(gen.standard_normal(sim.n_steps) * math.sqrt(sim.dt))

    want = []
    for start in range(0, sim.n_paths, 64):
        chunk = np.arange(start, min(start + 64, sim.n_paths))
        for k in range(1, last_step[chunk].max() + 1):
            at = chunk[last_step[chunk] >= k]
            want.append((k * sim.dt, x[at] * (k * sim.dt) + w[at, k - 1]))
    got = [(t, y) for t, y in calls if t > 0.0]
    assert len(got) == len(want)
    for (t, y), (t_want, y_want) in zip(got, want):
        assert t == t_want and np.array_equal(y, y_want)
