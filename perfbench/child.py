"""One workload process: ``python3 -m perfbench.child '<json args>'``.

:mod:`perfbench.run` starts every workload process through this module,
with BLAS pinned to one thread in its environment, so numpy never sees
more threads than the benchmark allows.  A process runs one *mode*:

``prepare``
    Generate the workload's seeded inputs into the work directory.
``setup``
    Do everything up to the first timed operation, record that instant
    and exit (the set-up time probe).
``measure``
    Set up, then run the timed phase and write its raw samples.

The result is one JSON file at ``args["out"]``; the process prints
nothing the parent parses.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, Optional

#: Seed of the presets' fleets and traces, shared by every workload so
#: that the benchmark seed moves the stochastic parts of a run and not
#: the world (which keeps ``train_cost`` comparable across seeds).
FLEET_SEED = 0
#: Upper bound on a timed phase, whatever its sample count.
MAX_SECONDS = 120.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def provenance() -> Dict[str, Any]:
    """numpy/BLAS build and the thread settings this process ran with."""
    import os

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Session:
    """What a workload needs from its process: args, the set-up mark,
    the tracer (traced runs only) and the result file."""

    def __init__(self, args: Dict[str, Any]) -> None:
        self.args = args
        self.workload: str = args["workload"]
        self.mode: str = args["mode"]
        self.seed: int = int(args["seed"])
        self.seconds: float = float(args["seconds"])
        self.trace = bool(args.get("trace", False))
        self.smoke = bool(args.get("smoke", False))
        self.work: str = args["work"]
        self.t_launch: float = float(args["t_launch"])
        self.t_first_op: Optional[float] = None
        self.tracer = None
        self.result: Dict[str, Any] = {}

    def install_tracer(self) -> None:
        from perfbench import spans

        self.tracer = spans.Tracer()
        spans.install(self.tracer)

    def first_op(self) -> bool:
        """Mark the end of set-up; returns False in ``setup`` mode, where
        the process stops here."""
        if self.t_first_op is None:
            self.t_first_op = time.monotonic()
        return self.mode != "setup"

    def deadline(self) -> float:
        return time.monotonic() + self.seconds

    def write(self) -> None:
        out = dict(self.result)
        if self.t_first_op is not None:
            out["setup_s"] = self.t_first_op - self.t_launch
        if self.mode == "measure":
            out.setdefault("peak_rss_mb", peak_rss_mb())
            out["provenance"] = provenance()
        if self.tracer is not None:
            trace_path = self.args["out"] + ".spans.json"
            self.tracer.write(trace_path)
            out["spans"] = trace_path
        with open(self.args["out"], "w") as fh:
            json.dump(out, fh)


def _dispatch(session: Session) -> None:
    from perfbench import loop_wl, serve_wl, train_wl

    workloads: Dict[str, Dict[str, Callable[[Session], None]]] = {
        "train-sim50": {"measure": train_wl.run},
        "serve-testbed": {"prepare": serve_wl.prepare, "measure": serve_wl.run},
        "loop-drift": {"prepare": loop_wl.prepare, "measure": loop_wl.run},
    }
    modes = workloads[session.workload]
    fn = modes.get(session.mode, modes["measure"])
    fn(session)


def main(argv: list) -> int:
    session = Session(json.loads(argv[0]))
    _dispatch(session)
    session.write()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
