"""Benchmark of the driftstop CLI.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each repetition runs one workload's ``driftstop solve`` / ``verify`` commands
in a fresh worker process (``worker.py``), one thread, BLAS pinned to one
thread.  Repetitions repeat until ``--seconds`` is used up (at least
``MIN_REPS``); the result reports medians.  ``--trace 0`` reports the
end-to-end metrics from untraced repetitions.  ``--trace 1`` alternates
traced and untraced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The benchmark needs the program's source next to it (``src/driftstop``); it
exits with status 2 without a result when that is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))
from tracing import DERIVED, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = {0: 3, 1: 2}
SETUP_PROBES = 2  # extra set-up-only processes before each untraced repetition; set-up is short and noisy
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREADS = {"DRIFTSTOP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("commands_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = tuple((m.name, m.unit) for m in PER_LAYER) + (("trace.overhead_s", "s"),)
UNITS = dict(LAYERS) | {m.name: m.unit for m in DERIVED}
# every end-to-end quantity the notes name, shown per workload (n/a where it has no such command)
REPORTED = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("commands_s", "s"),
    ("peak_rss_mb", "MB"),
    ("boundary_err_cells", "cells"),
    ("value_err", "abs"),
)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _run_worker(workload: str, seed: int, traced: bool, rep_dir: Path, timeout: float,
             setup_only: bool = False) -> tuple[dict, float]:
    env = dict(os.environ, **THREADS)
    shutil.rmtree(rep_dir, ignore_errors=True)
    t0 = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced)), "--dir", str(rep_dir), "--t0", repr(t0)]
    argv += ["--setup-only"] if setup_only else []
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise BenchError(f"{workload}: repetition exceeded {timeout:.0f} s") from exc
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def _median(values):
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Run repetitions of one workload and aggregate them."""
    reps: list[dict] = []
    walls: list[float] = []
    setups: list[float] = []
    start = time.monotonic()
    while True:
        traced = trace == 1 and len(reps) % 2 == 0
        rep_dir = WORK / "reps" / f"{workload}-{os.getpid()}-{len(reps)}"
        if not trace:
            for _ in range(SETUP_PROBES):
                probe, _ = _run_worker(workload, seed, False, rep_dir, deadline - time.monotonic(), setup_only=True)
                setups.append(probe["setup_s"])
                shutil.rmtree(rep_dir)
        rec, wall = _run_worker(workload, seed, traced, rep_dir, deadline - time.monotonic())
        if traced:
            shutil.copyfile(rep_dir / "spans.json", WORK / f"spans-{workload}.json")
        shutil.rmtree(rep_dir)
        reps.append(rec)
        walls.append(wall)
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)  # set-up probes included
        if len(reps) >= MIN_REPS[trace] and elapsed + per_rep > seconds:
            break
        if time.monotonic() + 2.0 * per_rep > deadline:
            break
    return aggregate(workload, seed, trace, reps, walls, setups)


def _per_command(rep: dict, sub: str):
    walls = [c["wall_s"] for c in rep["commands"] if c["argv"][0] == sub]
    return sum(walls) if walls else None


def aggregate(workload: str, seed: int, trace: int, reps: list[dict], walls: list[float], setups: list[float]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failures = []
    attempted = 0
    for i, r in enumerate(reps):
        for c in r["commands"]:
            attempted += 1
            if c["rc"] != 0:
                failures.append(f"rep {i}: driftstop {' '.join(c['argv'])} exited {c['rc']}\n{r['log']}")
        for c in r["checks"]:
            attempted += 1
            if not c["passed"]:
                failures.append(f"rep {i}: check {c['name']} failed: {c['detail']}")

    reported = {
        "setup_s": _median(setups + [r["setup_s"] for r in plain]),  # every set-up of the run
        "solve_s": _median([v for r in plain if (v := _per_command(r, "solve")) is not None]),
        "verify_s": _median([v for r in plain if (v := _per_command(r, "verify")) is not None]),
        "commands_s": _median([r["commands_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    reported.update(reps[0]["values"])

    layers, missing = {}, {}
    if traced:
        counts = [{k: v for k, v in r["layers"]["metrics"].items() if UNITS[k] != "s"} for r in traced]
        if len(traced) > 1:
            attempted += 1
            if any(c != counts[0] for c in counts[1:]):
                failures.append(f"per-layer counts differ between traced repetitions: {counts}")
        for name in traced[0]["layers"]["metrics"]:
            if UNITS[name] == "s":
                layers[name] = _median([r["layers"]["metrics"][name] for r in traced])
            else:
                layers[name] = traced[0]["layers"]["metrics"][name]
        missing = dict(traced[0]["layers"]["missing"])
        if plain:
            layers["trace.overhead_s"] = _median([r["commands_s"] for r in traced]) - reported["commands_s"]
        else:
            missing["trace.overhead_s"] = "no untraced repetition fitted in the run"

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": len(reps),
        "traced_reps": len(traced),
        "rep_wall_s": walls,
        "setup_samples_s": setups + [r["setup_s"] for r in plain],
        "attempted": attempted,
        "failures": failures,
        "reported": reported,
        "layers": layers,
        "missing": missing,
        "traced_split": {
            sub: _median([v for r in traced if (v := _per_command(r, sub)) is not None])
            for sub in ("solve", "verify")
        },
        "rep_summary": [
            {k: r[k] for k in ("traced", "setup_s", "commands_s", "peak_rss_mb", "commands")} for r in reps
        ],
        "inputs": reps[0]["inputs"],
        "checks": reps[0]["checks"],
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(res: dict) -> None:
    inp = res["inputs"]
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"reps={res['reps']} (traced {res['traced_reps']}), set-up samples {len(res['setup_samples_s'])}, rep wall "
          + ", ".join(f"{w:.2f}" for w in res["rep_wall_s"]) + " s")
    for name, unit in REPORTED:
        print(f"  {name:<20} {_fmt(res['reported'].get(name)):>14} {unit}")
    if res["traced_reps"]:
        split = ", ".join(f"{k}_s {_fmt(v)} s" for k, v in res["traced_split"].items())
        print(f"  traced repetitions (the base of the per-layer shares): {split}")
    for name, value in res["layers"].items():
        unit = UNITS[name]
        print(f"  {name:<34} {_fmt(value):>14} {unit}")
    for name, why in res["missing"].items():
        shown = "n/a" if why.startswith("undefined") else "missing"
        print(f"  {name:<34} {shown:>14}  ({why})")
    for c in res["checks"]:
        print(f"  check {c['name']}: {'pass' if c['passed'] else 'FAIL'} ({c['detail']})")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print(f"  inputs: python {inp['python']}, numpy {inp['numpy']}, scipy {inp['scipy']}, "
          f"nproc {inp['nproc']} (affinity {inp['affinity']}), "
          + " ".join(f"{k}={v}" for k, v in inp["threads"].items()))
    for run, h in inp["runs"].items():
        print(f"  run {run}: config_hash={h['config_hash']} resolved_config_sha256={h['resolved_config_sha256']}")


def result_line(res: dict) -> dict:
    if res["trace"]:
        picked = [(n, u, res["layers"]) for n, u in LAYERS]
    else:
        picked = [(n, u, res["reported"]) for n, u in END_TO_END]
    metrics = {n: {"value": src[n], "unit": u} for n, u, src in picked if src.get(n) is not None}
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of each workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must lie in [0, 2**64)")
    if not (ROOT / "src" / "driftstop" / "cli.py").is_file():
        print(f"error: program source not found at {ROOT / 'src' / 'driftstop'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace, time.monotonic() + RUN_LIMIT_S)
            (WORK / f"record-{name}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
            print_report(res)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        line = result_line(results[0])
    else:
        lines = {r["workload"]: result_line(r) for r in results}
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
