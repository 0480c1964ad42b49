"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import METHOD_KNOBS, WORKLOADS, command_argv, config_keys, is_method_knob  # noqa: E402


def test_no_workload_config_names_a_method_knob():
    for knob in METHOD_KNOBS | {"psor_omega", "psor_max_sweeps"}:
        assert is_method_knob(knob)
    for w in WORKLOADS.values():
        for run_name, doc in w.configs.items():
            named = sorted(k for k in config_keys(doc) if is_method_knob(k))
            assert not named, f"{w.name}/{run_name} names method knobs {named}"


def test_seed_reaches_the_program_only_through_verify_seed():
    from driftstop.cli import build_parser

    for w in WORKLOADS.values():
        for doc in w.configs.values():
            assert "seed" not in config_keys(doc)
        for sub, run_name in w.commands:
            argv = command_argv(sub, run_name, 987654321)
            assert ("--seed" in argv) == (sub == "verify")
            if sub == "verify":
                assert build_parser().parse_args(argv).seed == 987654321


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.LAYERS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _span(sid, name, start, end, parent=-1, **attrs):
    return tracing.Span(sid, name, start, end, parent, "r", attrs)


def test_self_time_subtracts_direct_children():
    spans = [
        _span(0, "cli.solve", 0.0, 10.0),
        _span(1, "dispersion.psi_grid", 1.0, 7.0, 0, rows=4, clamped=0),
        _span(2, "prior.kernel", 2.0, 5.0, 1, caller="dispersion", columns=3, node_columns=6),
        _span(3, "cli.write", 8.0, 9.0, 0, bytes=10),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    values, lost = tracing.layer_metrics(spans, missing={})
    assert values["dispersion.self_s"] == 3.0
    assert values["cli.self_s"] == 3.0
    assert values["prior.kernel_columns.dispersion"] == 3
    assert values["dispersion.kernel_calls_per_row"] == 0.25
    assert "montecarlo.live_fraction" in lost  # no Monte Carlo: undefined, not 0


def test_absent_or_unreached_hook_is_missing_not_zero():
    fake = tracing.Hook("stopping_solver.solve", "driftstop.cli", "no_such_function", "stopping_solver.solve", None)
    tracer = tracing.Tracer(run="t")
    tracer.install((fake,))
    assert tracer._patched == []
    missing = tracer.missing(expected={"montecarlo.evaluate"})
    assert set(missing) == {"stopping_solver.solve", "montecarlo.evaluate"}
    values, lost = tracing.layer_metrics([], missing)
    for name in ("stopping_solver.solve_s", "stopping_solver.lcp_iterations", "montecarlo.evaluate_s"):
        assert name in lost and name not in values
    assert values["montecarlo.gap_s"] == 0.0  # a layer the workload does not run


def test_install_and_uninstall_restore_the_program():
    import driftstop.cli as cli

    original = cli.solve_value
    tracer = tracing.Tracer(run="t")
    tracer.install()
    assert cli.solve_value is not original and cli.solve_value.__wrapped__ is original
    assert tracer.broken == {}
    tracer.uninstall()
    assert cli.solve_value is original


def test_run_refuses_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_gaussian", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _traced_worker(tmp_path, name, seed):
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "chain_two_point", "--seed", str(seed),
         "--trace", "1", "--dir", str(out), "--t0", "0"],
        env=dict(run.os.environ, **run.THREADS), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out


def test_two_traced_runs_give_identical_counts(tmp_path):
    """chain_two_point reaches every layer; its counters must repeat exactly."""
    seed = 424242
    first, out = _traced_worker(tmp_path, "a", seed)
    second, _ = _traced_worker(tmp_path, "b", seed)
    resolved = json.loads((out / "bernoulli" / "resolved_config.json").read_text())
    assert resolved["sim"]["seed"] == seed
    assert all(c["rc"] == 0 for c in first["commands"]) and all(c["passed"] for c in first["checks"])
    assert first["layers"]["missing"] == {} and second["layers"]["missing"] == {}
    keys = [
        "prior.kernel_calls.dispersion",
        "prior.kernel_calls.montecarlo",
        "prior.kernel_columns.dispersion",
        "prior.kernel_columns.montecarlo",
        "stopping_solver.lcp_iterations",
        "montecarlo.path_steps_filtered",
        "montecarlo.path_steps_live",
    ]
    a, b = first["layers"]["metrics"], second["layers"]["metrics"]
    assert all(a[k] > 0 for k in keys)
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
