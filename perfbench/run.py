"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-sim50 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in fresh processes (:mod:`perfbench.child`) with BLAS
pinned to one thread.  ``--trace 0`` measures the end-to-end metrics:
``SETUP_PROBES`` set-up-only processes (half before the measured one,
half after) plus the measured one give the set-up samples, and the
measured process runs the timed phase untraced.
``--trace 1`` runs the workload twice for half the time each, untraced
then traced, and reports the per-layer metrics from the traced run's
span dump.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark needs the program's sources (``src/repro``) under the
current directory and exits with status 2 without a result otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

ROOT = os.getcwd()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import spans, stats  # noqa: E402

WORKLOADS = ("train-sim50", "serve-testbed", "loop-drift")
PREPARED = ("serve-testbed", "loop-drift")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 160.0
WORK_DIR = ".perfbench"

#: name -> unit, in print order.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "train_cost": "cost",
}


def layer_units() -> Dict[str, str]:
    units = {}
    for base in spans.BASES:
        units[f"{base}.calls"] = "count"
        units[f"{base}.total_ms"] = "ms"
        units[f"{base}.self_ms"] = "ms"
    for parent in spans.COVERED_PARENTS:
        units[f"{parent}.covered_frac"] = "fraction"
    units["serve.forward.rows_per_call"] = "rows"
    units["loop.canary.accept_ratio"] = "ratio"
    units["trace.overhead_frac"] = "fraction"
    return units


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: Dict[str, Any], work: str, tag: str) -> Dict[str, Any]:
    """Start one workload process, wait for it, return its result file."""
    out = os.path.join(work, f"{tag}.json")
    payload = dict(args, work=work, out=out, t_launch=time.monotonic())
    # Its own process group, so a hung workload is killed together with
    # any server process it started.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(payload)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args['workload']} {tag} process exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _percentile(samples: List[float], q: float) -> Optional[float]:
    try:
        return stats.percentile(samples, q)
    except ValueError:
        return None


def end_to_end(setup: List[float], measured: Dict[str, Any],
               correct: bool) -> Dict[str, float]:
    """The end-to-end figures of one run.  A percentile without enough
    samples, or a figure that is not finite, is left out."""
    ms = [1000.0 * s for s in measured["latency_s"]]
    attempted = measured["attempted"]
    failed = attempted if not correct else measured["failed"]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": (measured["ops"] / measured["ops_time_s"]
                      if measured["ops_time_s"] > 0 else None),
        "latency_p50_ms": _percentile(ms, 50.0),
        "peak_rss_mb": measured["peak_rss_mb"],
        "success_rate": (attempted - failed) / attempted if attempted else 0.0,
        "train_cost": measured["train_cost"],
    }
    return {k: v for k, v in values.items() if v is not None and math.isfinite(v)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Every process of one workload run; returns the result object."""
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, WORK_DIR))
    base = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": False, "smoke": smoke}
    load_before = os.getloadavg()
    printed: Dict[str, float] = {}
    try:
        if workload in PREPARED:
            run_child(dict(base, mode="prepare"), work, "prepare")
        if trace:
            half = seconds / 2.0
            plain = run_child(dict(base, mode="measure", seconds=half), work, "untraced")
            traced = run_child(
                dict(base, mode="measure", seconds=half, trace=True), work, "traced"
            )
            measured = traced
            with open(traced["spans"]) as fh:
                metrics = spans.layer_metrics(json.load(fh))
            # Unscaled rates: the traced half runs no calibration snippet.
            metrics["trace.overhead_frac"] = 1.0 - (
                traced["raw_ops_per_s"] / plain["raw_ops_per_s"]
            )
            units = layer_units()
            checks = {
                f"{phase}: {name}": ok
                for phase, result in (("untraced", plain), ("traced", traced))
                for name, ok in result["checks"].items()
            }
        else:
            # Half the probes before the measured process and half after,
            # so the median spans the run rather than one moment of it.
            def probe(i: int) -> float:
                return run_child(dict(base, mode="setup"), work, f"setup-{i}")["setup_s"]

            half = SETUP_PROBES // 2
            setup = [probe(i) for i in range(half)]
            measured = run_child(dict(base, mode="measure"), work, "measure")
            setup.append(measured["setup_s"])
            setup += [probe(i) for i in range(half, SETUP_PROBES)]
            checks = dict(measured["checks"])
            if not smoke:
                need = stats.min_samples(50.0)
                checks[f"at least {need} latency samples (p50)"] = (
                    len(measured["latency_s"]) >= need
                )
            metrics = end_to_end(setup, measured, all(checks.values()))
            units = E2E_UNITS
            # Printed, not gated, where a run has the samples for it.
            p90 = _percentile([1000.0 * s for s in measured["latency_s"]], 90.0)
            if p90 is not None:
                printed["latency_p90_ms"] = p90
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = all(checks.values())
    attempted = max(1, int(measured["attempted"]))
    return {
        "checks": checks,
        "correct": correct,
        "attempted": attempted,
        "failed": attempted if not correct else int(measured["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units if name in metrics
        },
        "printed": printed,
        "provenance": dict(
            measured["provenance"], git_sha=git_sha(), cpu_count=os.cpu_count(),
            loadavg_before=load_before, loadavg_after=os.getloadavg(), seed=seed,
            latency_samples=len(measured["latency_s"]),
            **{key: measured[key]
               for key in ("repetitions", "passes", "counters", "raw_ops_per_s",
                           "host_scale")
               if key in measured},
        ),
    }


def report(workload: str, result: Dict[str, Any]) -> None:
    """Human-readable lines: provenance, checks, then every metric."""
    print(f"== {workload}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, ok in result["checks"].items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"output check: {'PASS' if result['correct'] else 'FAIL'}")
    samples = result["provenance"]["latency_samples"]
    for name, metric in result["metrics"].items():
        count = f" (n={samples})" if name.startswith("latency_") else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{count}")
    for name, value in result["printed"].items():
        print(f"{name} = {value:.6g} ms (n={samples}; printed only, not gated)")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size run for the benchmark's own tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error: workload processes are killed and
    # waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        report(name, results[name])
    summary = {
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()
    }
    last = summary[names[0]] if len(names) == 1 else summary
    print(json.dumps(last, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
