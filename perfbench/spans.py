"""Span tracing from outside the program, and the per-layer arithmetic.

:func:`install` wraps the public functions of each layer (the
:data:`LAYERS` table) with a recorder.  Nothing under ``src/`` changes:
the wrappers are set on the classes and module bindings at run time, in
the traced process only.  Each thread records its spans into its own
in-memory arrays — name, start, end, parent span and request id — and
:meth:`Tracer.dump` writes them once, when the workload ends.

:func:`layer_metrics` turns a dump into the per-layer figures: for every
layer base its call count, total time and self time (the span minus the
union of its child spans), plus the coverage ratios the ROADMAP asks for.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer base, module, attribute path) — every wrapped public function.
#: A function imported into a caller's namespace is wrapped at that
#: binding, where the caller looks it up.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.train", "repro.core.trainer", "OfflineTrainer.train"),
    ("rl.act", "repro.rl.agent", "PPOAgent.act"),
    ("rl.act", "repro.rl.agent", "PPOAgent.act_batch"),
    ("rl.obs_norm", "repro.rl.normalization", "ObservationNormalizer.__call__"),
    ("rl.obs_norm", "repro.rl.normalization", "ObservationNormalizer.normalize_frozen"),
    ("rl.observe", "repro.rl.agent", "PPOAgent.observe"),
    ("rl.observe", "repro.rl.agent", "PPOAgent.observe_batch"),
    ("rl.buffer", "repro.rl.buffer", "RolloutBuffer.add"),
    ("rl.buffer", "repro.rl.buffer", "RolloutBuffer.add_batch"),
    ("rl.update", "repro.rl.ppo", "PPOUpdater.update"),
    ("rl.gae", "repro.rl.ppo", "compute_gae"),
    ("rl.gae", "repro.rl.ppo", "compute_gae_grouped"),
    ("nn.adam", "repro.nn.optim", "Adam.step"),
    ("env.step", "repro.env.fl_env", "FLSchedulingEnv.step"),
    ("parallel.collect", "repro.parallel.collector", "VecRolloutCollector.run_episode_batch"),
    ("parallel.vec_step", "repro.parallel.vec_env", "SerialVecEnv.step"),
    ("sim.step", "repro.sim.system", "FLSystem.step"),
    ("traces.upload", "repro.traces.kernel", "FleetTraceKernel.time_to_transfer"),
    ("traces.histories", "repro.traces.kernel", "FleetTraceKernel.histories"),
    ("serve.handle", "repro.serve.server", "AllocationServer.handle_line"),
    ("serve.decode", "repro.serve.server", "decode_request"),
    ("serve.encode", "repro.serve.server", "encode_response"),
    ("serve.wait", "repro.serve.engine", "InferenceTicket.result"),
    ("serve.forward", "repro.serve.artifact", "PolicyArtifact.act_batch"),
    ("loop.experience.append", "repro.loop.experience", "ExperienceStore.append"),
    ("utils.save_npz_state", "repro.loop.experience", "save_npz_state"),
    ("utils.save_npz_state", "repro.serve.artifact", "save_npz_state"),
    ("utils.save_npz_state", "repro.loop.canary", "save_npz_state"),
    ("utils.save_npz_state", "repro.rl.agent", "save_npz_state"),
    ("utils.save_npz_state", "repro.utils.serialization", "save_npz_state"),
    ("loop.step", "repro.loop.controller", "LoopController.step"),
    ("loop.drift", "repro.loop.drift", "DriftDetector.update"),
    ("loop.retrain", "repro.loop.retrain", "Retrainer.retrain"),
    ("loop.canary", "repro.loop.canary", "CanaryGate.consider"),
    ("loop.shadow_eval", "repro.loop.canary", "shadow_evaluate"),
    ("loop.publish", "repro.loop.canary", "CanaryGate.publish"),
)

#: Layer bases in report order.
BASES: Tuple[str, ...] = tuple(dict.fromkeys(base for base, _, _ in LAYERS))

#: Parents whose child coverage is reported as ``<parent>.covered_frac``.
COVERED_PARENTS = ("core.train", "serve.handle", "loop.step")


class _ThreadSpans:
    """One thread's span arrays; only that thread appends to them."""

    __slots__ = ("thread", "name", "start", "end", "parent", "req", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("q")
        self.stack: List[int] = []


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._register = threading.Lock()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: States passed through ``serve.forward``; one thread calls it
        #: (the serve engine's worker, or the loop's main thread).
        self.forward_rows = 0

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            self._local.spans = spans
            with self._register:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable[..., Any],
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recorded as a ``name`` span; ``after`` sees its result."""
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = self._spans()
            idx = len(spans.start)
            parent = spans.stack[-1] if spans.stack else -1
            spans.name.append(nid)
            spans.parent.append(parent)
            spans.req.append(spans.req[parent] if parent >= 0 else -1)
            spans.end.append(0.0)
            spans.stack.append(idx)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                spans.end[idx] = clock()
                spans.stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def tag_request(self, request_id: int) -> None:
        """Give every open span of this thread the request id."""
        spans = self._spans()
        for idx in spans.stack:
            spans.req[idx] = request_id

    def dump(self) -> Dict[str, Any]:
        """Every recorded span, grouped by thread (open spans excluded)."""
        threads = []
        for spans in self._threads:
            threads.append({
                "thread": spans.thread,
                "name": spans.name.tolist(),
                "start": spans.start.tolist(),
                "end": spans.end.tolist(),
                "parent": spans.parent.tolist(),
                "req": spans.req.tolist(),
            })
        return {
            "names": list(self.names),
            "threads": threads,
            "forward_rows": self.forward_rows,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def _tag_decoded(tracer: Tracer, args: tuple, request: Any) -> None:
    request_id = request.get("id") if isinstance(request, dict) else None
    if isinstance(request_id, int):
        tracer.tag_request(request_id)


def _count_rows(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.forward_rows += len(result)


_AFTER = {"serve.decode": _tag_decoded, "serve.forward": _count_rows}


def install(tracer: Tracer) -> int:
    """Wrap every layer function in place; returns how many were wrapped."""
    count = 0
    for base, module_name, path in LAYERS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(base, original, _AFTER.get(base)))
        count += 1
    return count


# -- analysis of a dump -------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(dump: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s``, ``covered_s``.

    ``self_s`` is each span's duration minus the union of its child
    spans' intervals (clipped to the span).  ``total_s`` counts only
    outermost spans of a name, so a layer nested in itself is not
    counted twice; ``covered_s`` is the union of those spans' children.
    """
    names = dump["names"]
    table: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "covered_s": 0.0}
        for name in names
    }
    for spans in dump["threads"]:
        name_ids = spans["name"]
        starts, ends, parents = spans["start"], spans["end"], spans["parent"]
        children: Dict[int, List[Tuple[float, float]]] = {}
        for idx, parent in enumerate(parents):
            if parent >= 0:
                children.setdefault(parent, []).append((starts[idx], ends[idx]))
        for idx, nid in enumerate(name_ids):
            start, end = starts[idx], ends[idx]
            if end < start:
                continue  # still open when the dump was taken
            duration = end - start
            kids = [
                (max(s, start), min(e, end))
                for s, e in children.get(idx, ())
                if e > start and s < end
            ]
            covered = union_length(kids)
            row = table[names[nid]]
            row["calls"] += 1
            row["self_s"] += duration - covered
            ancestor = parents[idx]
            while ancestor >= 0 and name_ids[ancestor] != nid:
                ancestor = parents[ancestor]
            if ancestor < 0:
                row["total_s"] += duration
                row["covered_s"] += covered
    return table


def calls_under(dump: Dict[str, Any], name: str, parent: str) -> int:
    """Spans called ``name`` whose direct parent span is called ``parent``."""
    names = dump["names"]
    count = 0
    for spans in dump["threads"]:
        name_ids, parents = spans["name"], spans["parent"]
        for nid, up in zip(name_ids, parents):
            if names[nid] == name and up >= 0 and names[name_ids[up]] == parent:
                count += 1
    return count


def layer_metrics(dump: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric derivable from one dump (0 when absent)."""
    table = span_table(dump)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "covered_s": 0.0}
    out: Dict[str, float] = {}
    for base in BASES:
        row = table.get(base, empty)
        out[f"{base}.calls"] = float(row["calls"])
        out[f"{base}.total_ms"] = 1000.0 * row["total_s"]
        out[f"{base}.self_ms"] = 1000.0 * row["self_s"]
    for parent in COVERED_PARENTS:
        row = table.get(parent, empty)
        out[f"{parent}.covered_frac"] = (
            row["covered_s"] / row["total_s"] if row["total_s"] > 0 else 0.0
        )
    forwards = table.get("serve.forward", empty)["calls"]
    out["serve.forward.rows_per_call"] = (
        dump.get("forward_rows", 0) / forwards if forwards else 0.0
    )
    # A rollback re-publishes the incumbent from ``loop.step``; only a
    # publish made by the gate itself is an accept.
    retrains = table.get("loop.retrain", empty)["calls"]
    accepts = calls_under(dump, "loop.publish", "loop.canary")
    out["loop.canary.accept_ratio"] = accepts / retrains if retrains else 0.0
    return out
