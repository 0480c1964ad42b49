import collections
import math
import tracemalloc

import numpy as np
import pytest

from driftstop import (
    BoundaryCurve,
    PriorSpec,
    SimConfig,
    SolverConfig,
    bernoulli_solve,
    build_quadrature,
    default_domain,
    evaluate_policy,
    extract_regions,
    gaussian_tau_star,
    policy_optimality_gap,
    simulate_paths,
    solve_value,
    solver_psi_grid,
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


def test_reproducibility_and_chunk_independence(gaussian_table, bernoulli_table, monkeypatch):
    sim = SimConfig(n_paths=300, dt=0.05, horizon=1.0, seed=123)
    a = simulate_paths(gaussian_table, sim)
    b = simulate_paths(gaussian_table, sim)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x_true, b.x_true)
    # paths are keyed by index: a longer run reproduces the shorter one exactly
    big = simulate_paths(gaussian_table, SimConfig(n_paths=700, dt=0.05, horizon=1.0, seed=123))
    assert np.array_equal(big.y[:300], a.y)
    # across block edges: 800 steps fill three blocks of 256 and start a fourth.
    # Chunks of 64 give the paths of one chunk, a horizon of 600 steps, inside
    # the third block, gives their prefix, and a walk in chunks of 64 that stops
    # every path at step 790 sees the same observations, all bit for bit (at
    # q = 2 the kernel's columns do not interact)
    sim = SimConfig(n_paths=200, dt=0.01, horizon=8.0, seed=123)
    assert sim.n_steps > 3 * montecarlo._BLOCK
    whole = simulate_paths(bernoulli_table, sim)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    chunked = simulate_paths(bernoulli_table, sim)
    short = simulate_paths(bernoulli_table, SimConfig(n_paths=200, dt=0.01, horizon=6.0, seed=123))
    assert np.array_equal(chunked.y, whole.y) and np.array_equal(chunked.x_true, whole.x_true)
    assert np.array_equal(short.y, whole.y[:, :601]) and np.array_equal(short.x_hat, whole.x_hat[:, :601])
    stats = evaluate_policy(bernoulli_table, 0.25, 7.9, sim).paths[0]
    assert np.all(np.rint(stats.tau / sim.dt) == 790)
    assert np.array_equal(stats.sq_err, (whole.x_true - whole.x_hat[:, 790]) ** 2)
    assert np.array_equal(stats.psi_at_stop, whole.psi[:, 790])


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


def _spans(calls, dt, chunk):
    """Each recorded kernel call's first path index, first step and step count;
    the call at t = 0 starts the walk of the next chunk of paths."""
    start = -chunk
    for t, _ in calls:
        k = int(np.rint(np.min(t) / dt))
        start += chunk * (k == 0)
        yield start, k, np.unique(t).size


def test_walk_filters_only_paths_some_rule_still_needs(bernoulli_table, monkeypatch):
    # a path is needed at step k while k <= its latest stop over the rules, and a
    # call filters every needed path at its span's first step on each step of the
    # span, although at q = 2 one call covers several steps
    policy, shifts = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=5000, dt=0.02, horizon=20.0, seed=67)
    calls = []
    kernel = montecarlo.posterior_mean_var

    def counted(table, t, y):
        calls.append((np.asarray(t), np.size(y)))
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", counted)
    est = evaluate_policy(bernoulli_table, 0.25, policy, sim, shifts)
    last_step = np.max([np.rint(stats.tau / sim.dt) for stats in est.paths], axis=0)
    for (start, k, span), (_, columns) in zip(_spans(calls, sim.dt, montecarlo._CHUNK), calls):
        chunk = last_step[start : start + montecarlo._CHUNK]
        assert columns == span * int(np.sum(chunk >= k))
    assert sum(columns for _, columns in calls) == 633_375
    assert max(np.unique(t).size for t, _ in calls) > 1


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


@pytest.mark.parametrize("case", ["solver_boundary_and_shifts", "threshold_to_the_horizon"])
def test_walk_memory_at_128_nodes_does_not_grow_with_the_horizon(halfnormal_table, mixture_table, case):
    # the stopping intervals are looked up a span of steps at a time as the walk
    # reaches it, and the Wiener values drawn a block at a time, so neither the
    # solver boundary over a 100-unit horizon nor the threshold, whose capped
    # paths walk a 40-unit horizon to its end, holds a value per path and step
    if case == "solver_boundary_and_shifts":
        table, policy, shifts = halfnormal_table, _solver_boundary(halfnormal_table, 0.01, 100.0), (-0.05, 0.05)
        sim = SimConfig(n_paths=400, dt=0.01, horizon=100.0, seed=5)
    else:
        table, policy, shifts = mixture_table, BoundaryCurve.symmetric_threshold(1.5), ()
        sim = SimConfig(n_paths=100, dt=0.01, horizon=40.0, seed=5)
    tracemalloc.start()
    try:
        est = evaluate_policy(table, 0.01, policy, sim, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    if case == "threshold_to_the_horizon":
        assert est.cap_fraction > 0.3


def _reference_walk(table, policy, sim):
    """Every path walked to its stop over full simulate_paths trajectories; a
    number is a deterministic time, met by the first step at or after it."""

    def stops(t, x_hat):
        if isinstance(policy, BoundaryCurve):
            return policy.contains(t, x_hat)
        return np.full(x_hat.shape, t >= policy - 1e-12)

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
        stop = live & stops(t_k, batch.x_hat[:, k])
        if k == n_steps:
            ref["capped"] = live & ~stop
            stop = live.copy()
        ref["tau"][stop] = t_k
        ref["sq_err"][stop] = (batch.x_true[stop] - batch.x_hat[stop, k]) ** 2
        ref["psi_at_stop"][stop] = batch.psi[stop, k]
        live &= ~stop
    return ref


def _assert_walks_match_reference(table, c, policy, shifts, sim, monkeypatch):
    """Walk ``policy`` and its ``shifts`` several steps per kernel call and then one
    step per call (a node-column budget of 1, the route a 128-node table takes on a
    full chunk): every field of every rule must equal the reference walk's to the
    last bit.  Returns the reference walks, the base rule's first."""
    if isinstance(policy, BoundaryCurve):
        rules = [policy] + [policy.shifted(s) for s in shifts]
    else:
        rules = [policy] + [max(policy + s, 0.0) for s in shifts]
    refs = [_reference_walk(table, rule, sim) for rule in rules]
    steps = []  # steps per kernel call, one per row of its times
    kernel = montecarlo.posterior_mean_var

    def recorded(table, t, y):
        steps.append(np.unique(t).size)
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", recorded)
    for node_columns in (montecarlo._NODE_COLUMNS, 1):
        monkeypatch.setattr(montecarlo, "_NODE_COLUMNS", node_columns)
        steps.clear()
        est = evaluate_policy(table, c, policy, sim, shifts)
        assert max(steps) > 1 if node_columns > 1 else set(steps) == {1}
        for ref, stats in zip(refs, est.paths, strict=True):
            for name, want in ref.items():
                assert np.array_equal(getattr(stats, name), want), (node_columns, name)
    return refs


@pytest.mark.parametrize("chunk", [montecarlo._CHUNK, 256])
def test_walk_matches_reference_walk_bit_for_bit(bernoulli_table, monkeypatch, chunk):
    # at q = 2 the kernel's columns do not interact, so dropping stopped paths
    # from the walk must leave every per-path result unchanged to the last bit,
    # whether a kernel call covers several steps or one; the short horizon caps
    # some paths of every rule, and chunks of 256 split the 600 paths into
    # three walks, the last one partial
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    policy, shifts = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=600, dt=0.02, horizon=3.0, seed=73)
    for ref in _assert_walks_match_reference(bernoulli_table, 0.25, policy, shifts, sim, monkeypatch):
        assert 0 < ref["capped"].sum() < sim.n_paths


def test_stop_at_walk_with_time_shifts_matches_reference_walk_bit_for_bit(bernoulli_table, monkeypatch):
    # a deterministic time's rule stops every path at one known step, and its
    # shifts move the time: -0.8 clips it to 0, and +2.6 puts it past the 3.0
    # horizon, where every path is capped
    sim = SimConfig(n_paths=600, dt=0.02, horizon=3.0, seed=79)
    refs = _assert_walks_match_reference(bernoulli_table, 0.25, 0.5, (-0.8, 0.3, 2.6), sim, monkeypatch)
    assert [np.unique(ref["tau"]).tolist() for ref in refs] == [[0.5], [0.0], [0.8], [3.0]]
    assert [int(ref["capped"].sum()) for ref in refs] == [0, 0, 0, sim.n_paths]


def _late_two_sided_curve():
    """No stopping interval before t = 0.5, then |x| >= 0.8, narrowing to |x| >= 0.4 from t = 1.2."""
    inf = math.inf
    bands = [[], [(-inf, -0.8), (0.8, inf)], [(-inf, -0.4), (0.4, inf)]]
    return BoundaryCurve(np.array([0.0, 0.5, 1.2]), bands, "general")


def _count_lookups(monkeypatch):
    """The times of every interval lookup a rule makes while a chunk is walked."""
    lookups, walking = [], [False]
    slice_index, walk = BoundaryCurve.slice_index, montecarlo._walk_chunk

    def counted(curve, t):
        if walking[0]:
            lookups.append(np.asarray(t, dtype=float))
        return slice_index(curve, t)

    def walked(*args):
        walking[0] = True
        try:
            walk(*args)
        finally:
            walking[0] = False

    monkeypatch.setattr(BoundaryCurve, "slice_index", counted)
    monkeypatch.setattr(montecarlo, "_walk_chunk", walked)
    return lookups


@pytest.mark.parametrize("node_columns", [montecarlo._NODE_COLUMNS, 1])
def test_walk_looks_up_no_interval_before_a_rule_can_stop(bernoulli_table, monkeypatch, node_columns):
    # no rule has a stopping interval before step 25 (t = 0.5; the shifts keep
    # the first slice empty), so each of the three rules looks up the
    # intervals of every span that reaches it, up to the last stop, and of no
    # span before it: at one step per call, of steps 25 on exactly.  A time
    # rule past the 3.0 horizon has no stopping interval at all, so its rules
    # look up only the horizon's span
    monkeypatch.setattr(montecarlo, "_NODE_COLUMNS", node_columns)
    lookups = _count_lookups(monkeypatch)
    sim = SimConfig(n_paths=600, dt=0.02, horizon=3.0, seed=73)
    est = evaluate_policy(bernoulli_table, 0.25, _late_two_sided_curve(), sim, (-0.05, 0.05))
    looked_up = np.unique(np.concatenate(lookups))
    assert sum(t.size for t in lookups) == 3 * looked_up.size
    assert min(t.max() for t in lookups) >= 0.5
    if node_columns == 1:
        last = int(np.rint(max(stats.tau.max() for stats in est.paths) / sim.dt))
        assert np.array_equal(looked_up, sim.times()[25 : last + 1])
    lookups.clear()
    est = evaluate_policy(bernoulli_table, 0.25, 3.2, sim, (0.5,))
    assert [t.max() for t in lookups] == [3.0, 3.0] and all(stats.capped.all() for stats in est.paths)


def test_late_two_sided_walk_matches_reference_walk_bit_for_bit(bernoulli_table, monkeypatch):
    # the rules test no span before t = 0.5; from there they stop paths on
    # both sides, more of them once the stopping set widens at t = 1.2
    policy = _late_two_sided_curve()
    sim = SimConfig(n_paths=600, dt=0.02, horizon=3.0, seed=89)
    refs = _assert_walks_match_reference(bernoulli_table, 0.25, policy, (-0.05, 0.05), sim, monkeypatch)
    for ref in refs:
        assert ref["tau"].min() == 0.5 and np.unique(ref["tau"]).size > 20
        assert (ref["sq_err"] > 0.0).any()


def test_time_rule_past_the_horizon_matches_reference_walk_bit_for_bit(bernoulli_table, monkeypatch):
    # 3.2 and its 0.5 shift both lie past the 3.0 horizon: no rule can stop
    # before it, and every path is capped there
    sim = SimConfig(n_paths=300, dt=0.02, horizon=3.0, seed=91)
    refs = _assert_walks_match_reference(bernoulli_table, 0.25, 3.2, (0.5,), sim, monkeypatch)
    for ref in refs:
        assert np.all(ref["tau"] == 3.0) and ref["capped"].all()


def test_walk_draws_each_path_from_its_own_philox_stream(bernoulli_table, monkeypatch):
    # block b of path i is the stream Generator(Philox(key=[seed, i],
    # counter=[0, 0, b, 0])) from its start: block 0 gives the drift from its
    # first uniform and then the normals of steps 1 to 16, block b >= 1 the
    # normals of steps 16b + 1 to 16(b + 1), and W sums them in order.  Chunks
    # of 64 put the 150 paths in three walks, and blocks of 16 steps make every
    # path that walks past step 16 draw its later blocks lazily, after others
    # have stopped; a call sees the cell (t, y = x t + W) of each path needed at
    # its first step, on every step it covers, step by step in path order,
    # whether it covers one step or several
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    policy, _ = _bernoulli_rule_and_shifts()
    sim = SimConfig(n_paths=150, dt=0.02, horizon=4.0, seed=2**63 + 79)
    calls = []
    kernel = montecarlo.posterior_mean_var

    def recorded(table, t, y):
        y = np.array(y, dtype=float, copy=True)
        calls.append((np.broadcast_to(t, y.shape).ravel(), y.ravel()))
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", recorded)
    est = evaluate_policy(bernoulli_table, 0.25, policy, sim)
    last_step = np.rint(est.paths[0].tau / sim.dt).astype(int)
    assert last_step.min() < 16 and last_step.max() > 3 * 16

    cum_w = np.cumsum(bernoulli_table.weights)
    x = np.empty(sim.n_paths)
    z = np.empty((sim.n_paths, sim.n_steps))
    for i in range(sim.n_paths):
        key = np.array([sim.seed, i], dtype=np.uint64)
        for b in range(-(-sim.n_steps // 16)):
            gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, b, 0]))
            if b == 0:
                x[i] = bernoulli_table.nodes[np.searchsorted(cum_w, gen.random(), "right")]
            gen.standard_normal(out=z[i, 16 * b : 16 * (b + 1)])
    w = np.cumsum(z * math.sqrt(sim.dt), axis=1)

    want = []
    for start, k, span in _spans(calls, sim.dt, 64):
        chunk = np.arange(start, min(start + 64, sim.n_paths))
        at = chunk[last_step[chunk] >= k]
        for step in range(max(k, 1), k + span):
            want.append((step * sim.dt, x[at] * (step * sim.dt) + w[at, step - 1]))
    assert any(np.unique(t).size > 1 for t, _ in calls)
    t_got, y_got = (np.concatenate(cells) for cells in zip(*calls))
    after_0 = t_got > 0.0
    t_want = np.concatenate([np.full(y.size, t) for t, y in want])
    y_want = np.concatenate([y for _, y in want])
    assert np.array_equal(t_got[after_0], t_want) and np.array_equal(y_got[after_0], y_want)


def _count_draws(monkeypatch):
    """Count the re-keys of each (path index, block) and the normals drawn per path
    index; every draw follows the re-key of the path it draws for."""
    rekeys, normals = collections.Counter(), collections.Counter()
    path = [None]  # the path last re-keyed
    rekey = montecarlo._rekey

    def counted_rekey(gen, seed, i, block):
        rekeys[i, block] += 1
        path[0] = i
        rekey(gen, seed, i, block)

    class Counted:  # the chunk's generator, counting the normals it draws
        def __init__(self, gen):
            self.bit_generator, self.random, self.normals = gen.bit_generator, gen.random, gen.standard_normal

        def standard_normal(self, out):
            normals[path[0]] += out.size
            return self.normals(out=out)

    for name in ("_path_streams", "_wiener_block"):
        draw = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name, lambda gen, *args, draw=draw: draw(Counted(gen), *args))
    monkeypatch.setattr(montecarlo, "_rekey", counted_rekey)
    return rekeys, normals


def test_walk_draws_each_block_of_each_path_once(bernoulli_table, monkeypatch):
    # threshold 1.5 lies past the atoms +-1, so every path walks to the 3,000-step
    # horizon: each re-keys once for every block it walks into and draws every
    # step once, with no block drawn twice
    rekeys, normals = _count_draws(monkeypatch)
    sim = SimConfig(n_paths=4096, dt=0.01, horizon=30.0, seed=7)
    est = evaluate_policy(bernoulli_table, 0.25, BoundaryCurve.symmetric_threshold(1.5), sim)
    assert est.cap_fraction == 1.0
    blocks = -(-sim.n_steps // montecarlo._BLOCK)
    assert rekeys == {(i, b): 1 for i in range(sim.n_paths) for b in range(blocks)}
    assert normals == {i: sim.n_steps for i in range(sim.n_paths)}


@pytest.mark.parametrize("time, shifts, reach", [(0.5, (-0.3, 0.2), 35), (0.0, (), 0), (6.0, (), 300)])
def test_stop_at_walk_draws_no_normal_past_its_last_rule_step(bernoulli_table, monkeypatch, time, shifts, reach):
    # deterministic times 0.2, 0.5 and 0.7 stop at steps 10, 25 and 35 of 150,
    # so no path draws past step 35; a time of 0 draws no normal at all, and a
    # time past the first block re-keys once more for the second and stops
    # drawing at its step
    rekeys, normals = _count_draws(monkeypatch)
    sim = SimConfig(n_paths=300, dt=0.02, horizon=3.0 if reach < 150 else 8.0, seed=11)
    est = evaluate_policy(bernoulli_table, 0.25, time, sim, shifts)
    assert max(np.rint(stats.tau / sim.dt).max() for stats in est.paths) == reach
    blocks = 2 if reach > montecarlo._BLOCK else 1
    assert rekeys == {(i, b): 1 for i in range(sim.n_paths) for b in range(blocks)}
    assert list(normals.values()) == [reach] * sim.n_paths


def test_time_rules_inverting_nothing_keep_several_steps_per_call(mixture_table, monkeypatch):
    # five deterministic times stop on x_hat like any curve: at q = 128 a call
    # of 200 paths covers two steps, and each rule stops at its own step
    steps_per_call = []
    kernel = montecarlo.posterior_mean_var

    def counted(table, t, y):
        steps_per_call.append(np.unique(t).size)
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", counted)
    sim = SimConfig(n_paths=200, dt=0.02, horizon=2.0, seed=17)
    est = evaluate_policy(mixture_table, 0.04, 0.5, sim, (-0.3, -0.1, 0.1, 0.3))
    assert [set(np.rint(stats.tau / sim.dt)) for stats in est.paths] == [{25}, {10}, {20}, {30}, {40}]
    assert max(steps_per_call) == 2


def _solver_boundary(table, c, t_max):
    lo, hi = default_domain(table)
    cfg = SolverConfig(n_t=60, n_x=101, T_max=t_max, x_lo=lo, x_hi=hi)
    return extract_regions(solve_value(solver_psi_grid(table, cfg), c, cfg).values, cfg)


def test_curve_walk_draws_no_normal_past_its_first_all_stop_step(gaussian_table, monkeypatch):
    # the Gaussian rule at c = 0.25 stops nowhere before tau* = 1 and everywhere
    # from the row at t = 1 on, step 50 of the 200 the horizon allows, so every
    # path stops there and none draws a normal past it
    curve = _solver_boundary(gaussian_table, 0.25, 2.0)
    assert curve.intervals[-1] == [(-math.inf, math.inf)]
    rekeys, normals = _count_draws(monkeypatch)
    sim = SimConfig(n_paths=300, dt=0.02, horizon=4.0, seed=13)
    est = evaluate_policy(gaussian_table, 0.25, curve, sim)
    assert np.all(np.rint(est.paths[0].tau / sim.dt) == 50) and est.cap_fraction == 0.0
    assert rekeys == {(i, 0): 1 for i in range(sim.n_paths)}
    assert list(normals.values()) == [50] * sim.n_paths


def _offset_table():
    return build_quadrature(PriorSpec.gaussian(2000.0, 1.0), n=128)


def _offset_boundary():
    """Stop once x_hat leaves a band around 2000 that narrows at t = 1.5."""
    inf = math.inf
    bands = [[(-inf, 1999.4), (2000.6, inf)], [(-inf, 1999.8), (2000.2, inf)]]
    return BoundaryCurve(np.array([0.0, 1.5]), bands, "general")


@pytest.mark.parametrize(
    "case", ["half_normal", "mixture", "atoms_at_extreme_node", "gaussian_at_2000", "mixture_with_shifts"]
)
def test_walk_stops_match_reference_walk(case, halfnormal_table, mixture_table, bernoulli_table):
    # the walk decides each span's stops on the x_hat of one kernel call over
    # its steps; the reference applies BoundaryCurve.contains to x_hat at every
    # step.  The half-normal boundary is one-sided, the mixture one stops
    # nowhere early and everywhere late, and the end of |x| >= 1 on atoms +-1
    # sits on an extreme node: x_hat reaches it only as floating point rounds
    # to 1.0 near y = 19, which stops 490 of the 500 paths before the horizon.
    # The prior centred at 2000 has logits near 1e6 by t = 6, and so a kernel
    # round-off far above its span's.  At q = 128 a call covers several steps
    # once at most 256 paths are left
    shifts = ()
    if case == "half_normal":
        table, policy = halfnormal_table, _solver_boundary(halfnormal_table, 0.1, 3.0)
        sim = SimConfig(n_paths=400, dt=0.02, horizon=4.0, seed=83)
    elif case == "mixture":
        table, policy = mixture_table, _solver_boundary(mixture_table, 0.04, 5.5)
        sim = SimConfig(n_paths=400, dt=0.02, horizon=8.0, seed=89)
    elif case == "atoms_at_extreme_node":
        table, policy = bernoulli_table, BoundaryCurve.symmetric_threshold(1.0)
        sim = SimConfig(n_paths=500, dt=0.05, horizon=30.0, seed=3)
    elif case == "gaussian_at_2000":
        table, policy = _offset_table(), _offset_boundary()
        sim = SimConfig(n_paths=120, dt=0.02, horizon=6.0, seed=97)
    else:
        table, policy, shifts = mixture_table, _solver_boundary(mixture_table, 0.04, 5.5), (-0.05, 0.05)
        sim = SimConfig(n_paths=150, dt=0.02, horizon=8.0, seed=101)
    est = evaluate_policy(table, 0.25, policy, sim, shifts)
    for shift, stats in zip(shifts, est.paths[1:]):
        ref = _reference_walk(table, policy.shifted(shift), sim)
        assert np.array_equal(stats.tau, ref["tau"]) and np.array_equal(stats.capped, ref["capped"])
    ref = _reference_walk(table, policy, sim)
    stopped = int(np.sum(~ref["capped"]))
    assert np.unique(ref["tau"][~ref["capped"]]).size > 5
    if case == "atoms_at_extreme_node":
        assert stopped == 490
        for name, want in ref.items():  # q = 2: every field to the last bit
            assert np.array_equal(getattr(est.paths[0], name), want), name
    else:
        assert stopped > 0
        assert np.array_equal(est.paths[0].tau, ref["tau"]) and np.array_equal(est.paths[0].capped, ref["capped"])
