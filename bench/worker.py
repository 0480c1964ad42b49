"""One repetition of a workload, in a fresh process.

Imports ``driftstop`` from the checkout's ``src``, writes the workload's
configs, runs its CLI commands in-process through ``driftstop.cli.main``
(timed, traced when asked), then checks the artifacts against the oracle and
prints one JSON line.  ``run.py`` starts this script once per repetition; it
is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
THREAD_ENV = ("DRIFTSTOP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    sys.path.insert(0, str(SRC))
    import driftstop
    import driftstop.cli

    origin = Path(driftstop.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"driftstop was imported from {origin}, not from {SRC}")
    return driftstop.cli


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else None


def _inputs(workload, seed: int) -> dict:
    """What a parent run and a change run must share to be comparable."""
    import numpy
    import scipy

    runs = {}
    for run in workload.configs:
        meta = Path(run) / "solver_meta.json"
        runs[run] = {
            "config_hash": json.loads(meta.read_text())["meta"]["config_hash"] if meta.exists() else None,
            "resolved_config_sha256": _digest(Path(run) / "resolved_config.json"),
        }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--dir", required=True, help="empty working directory of this repetition")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this process")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    args = p.parse_args(argv)

    cli = _import_program()
    from workloads import WORKLOADS, command_argv

    workload = WORKLOADS[args.workload]
    work = Path(args.dir)
    work.mkdir(parents=True)
    os.chdir(work)
    for run, doc in workload.configs.items():
        Path(f"{run}.json").write_text(json.dumps(doc, indent=2))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run=f"{args.workload}/{args.seed}/{os.getpid()}")
        tracer.install()

    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    commands = []
    log = io.StringIO()
    for sub, run in workload.commands:
        cmd = command_argv(sub, run, args.seed)
        sid = tracer.open(f"cli.{sub}") if tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(cmd)
        except Exception:  # a crash is a failed command, reported with its traceback
            rc = "exception"
            log.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if tracer:
            tracer.close(sid)
        commands.append({"argv": cmd, "rc": rc, "wall_s": wall})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_cmd = [c for c in commands if c["rc"] != 0]
    try:
        checks, values = workload.check(Path("."))
        checks = [c._asdict() for c in checks]
    except Exception:  # unreadable artifacts: one failed check, never a silent pass
        checks = [{"name": "artifacts_readable", "passed": False, "detail": traceback.format_exc()}]
        values = {}

    result = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "commands": commands,
        "commands_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "values": values,
        "inputs": _inputs(workload, args.seed),
        "log": log.getvalue() if failed_cmd else "",
    }
    if tracer:
        from tracing import Span, layer_metrics

        tracer.uninstall()
        missing = tracer.missing(workload.hooks)
        metrics, lost = layer_metrics(tracer.spans, missing)
        result["layers"] = {"metrics": metrics, "missing": lost, "hooks_missing": missing}
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"run": tracer.run, "fields": list(Span._fields), "spans": tracer.to_json()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
