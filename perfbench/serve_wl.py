"""``serve-testbed``: closed-loop FL coordinators against AllocationServer.

The server runs in its own process (:mod:`perfbench.serve_host`) on a
testbed policy artifact exported from a seeded checkpoint, with an
ExperienceStore recording every ``outcome``.  This process plays
``COORDINATORS`` FL coordinators, one thread and one connection each.
A coordinator's round sends ``allocate`` for its next state, waits for
the frequencies, then reports the round's ``outcome`` — the coordinator
cannot start a round before it has its allocation, so the loop is closed.

Inputs come from the seed before the timed phase: each coordinator's
states are the bandwidth histories its simulated FL system passes
through when it follows the artifact's allocations, so the expected
reply to every ``allocate`` is known bit-for-bit in advance.  The
client speaks the JSON-lines protocol itself (no ``repro.serve.loadgen``),
so a change to the program's load generator cannot move the figures.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from perfbench.child import FLEET_SEED, MAX_SECONDS, Session

COORDINATORS = 2
#: Rounds precomputed per coordinator; the timed phase cycles through them.
ROUNDS = 600
HEALTH_TIMEOUT_S = 60.0


def _paths(work: str) -> Dict[str, str]:
    return {
        "registry": os.path.join(work, "registry"),
        "checkpoint": os.path.join(work, "agent.npz"),
        "rounds": os.path.join(work, "rounds.json"),
    }


def prepare(session: Session) -> None:
    """Seeded checkpoint -> artifact, and every coordinator's rounds."""
    import numpy as np

    from repro.core.trainer import OfflineTrainer, TrainerConfig
    from repro.experiments.presets import TESTBED_PRESET, build_env, build_system
    from repro.serve import export_policy

    paths = _paths(session.work)
    env = build_env(TESTBED_PRESET, seed=FLEET_SEED, env_rng=session.seed)
    trainer = OfflineTrainer(env, TrainerConfig(n_episodes=16), rng=session.seed)
    trainer.train()
    trainer.save_agent(paths["checkpoint"])
    os.makedirs(paths["registry"], exist_ok=True)
    artifact = export_policy(
        paths["checkpoint"],
        os.path.join(paths["registry"], "policy-v0001.policy.npz"),
        env.system.fleet.max_frequencies,
    )
    rng = np.random.default_rng(session.seed)
    config = TESTBED_PRESET.system_config()
    horizon = TESTBED_PRESET.trace_slots * config.slot_duration
    coordinators = []
    for _ in range(COORDINATORS):
        system = build_system(TESTBED_PRESET, seed=FLEET_SEED)
        system.reset(float(rng.uniform(0.25, 0.75) * horizon))
        rounds = []
        for _ in range(ROUNDS):
            state = system.bandwidth_state().ravel()
            freqs = artifact.act_batch(state[None, :])[0]
            result = system.step(freqs)
            rounds.append({
                "state": state.tolist(),
                "frequencies": freqs.tolist(),
                "reward": float(result.reward),
                "cost": float(result.cost),
                "clock": float(result.start_time),
            })
        coordinators.append(rounds)
    with open(paths["rounds"], "w") as fh:
        json.dump(coordinators, fh)


def _pack(values: List[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class ServerProcess:
    """The allocation server's process, from launch to drained exit."""

    def __init__(self, session: Session, tag: str, trace: bool) -> None:
        self.dir = os.path.join(session.work, tag)
        os.makedirs(self.dir, exist_ok=True)
        self.result_path = os.path.join(self.dir, "server.json")
        cmd = [
            sys.executable, "-m", "perfbench.serve_host",
            json.dumps({
                "registry": _paths(session.work)["registry"],
                "store": os.path.join(self.dir, "experience"),
                "out": self.result_path,
                "trace": trace,
            }),
        ]
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.address = ("127.0.0.1", int(line[1]))

    def wait_healthy(self) -> float:
        """Seconds from launch to the first healthy ``health`` reply."""
        limit = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < limit:
            try:
                with socket.create_connection(self.address, timeout=5.0) as sock:
                    sock.sendall(b'{"op":"health"}\n')
                    reply = json.loads(sock.makefile("rb").readline())
                if reply.get("ok") and reply.get("status") == "serving":
                    return time.monotonic() - self.t_launch
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became healthy")

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (drain), wait for exit, return the server's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if not os.path.exists(self.result_path):
            return {}
        with open(self.result_path) as fh:
            return json.load(fh)


def _coordinator(address: Tuple[str, int], rounds: List[Dict[str, Any]],
                 index: int, start: threading.Barrier, deadline: List[float],
                 out: Dict[str, Any]) -> None:
    """One closed-loop coordinator: allocate, then outcome, per round."""
    requests = []
    for i, rnd in enumerate(rounds):
        rid = index * 10_000_000 + 2 * i
        allocate = json.dumps(
            {"op": "allocate", "id": rid, "state": rnd["state"]},
            separators=(",", ":"),
        ).encode() + b"\n"
        outcome = json.dumps(
            {"op": "outcome", "id": rid + 1, "state": rnd["state"],
             "frequencies": rnd["frequencies"], "reward": rnd["reward"],
             "cost": rnd["cost"], "clock": rnd["clock"]},
            separators=(",", ":"),
        ).encode() + b"\n"
        requests.append((allocate, outcome, _pack(rnd["frequencies"])))
    rtts: List[float] = []
    done = failed = 0
    with socket.create_connection(address) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        start.wait()
        i = 0
        while time.monotonic() < deadline[0]:
            allocate, outcome, expected = requests[i % len(requests)]
            t0 = time.perf_counter()
            sock.sendall(allocate)
            reply = reader.readline()
            rtts.append(time.perf_counter() - t0)
            ok = False
            if reply:
                body = json.loads(reply)
                freqs = body.get("frequencies")
                ok = bool(body.get("ok")) and isinstance(freqs, list) and (
                    _pack(freqs) == expected
                )
            sock.sendall(outcome)
            ack = reader.readline()
            if ack:
                body = json.loads(ack)
                ok = ok and body.get("ok") is True and body.get("recorded") is True
            else:
                ok = False
            done += 1
            failed += not ok
            i += 1
        out["end"] = time.perf_counter()
    out.update(rtts=rtts, rounds=done, failed=failed)


def run(session: Session) -> None:
    with open(_paths(session.work)["rounds"]) as fh:
        coordinators = json.load(fh)
    server = ServerProcess(session, f"server-{session.mode}-{os.getpid()}", session.trace)
    try:
        setup_s = server.wait_healthy()
        if session.mode == "setup":
            session.result = {"setup_s": setup_s}
            return
        # A p90 needs 100 round trips; the closed loop makes hundreds a second.
        results: List[Dict[str, Any]] = [{} for _ in coordinators]
        start = threading.Barrier(len(coordinators) + 1)
        deadline = [float("inf")]
        threads = [
            threading.Thread(
                target=_coordinator,
                args=(server.address, rounds, k, start, deadline, results[k]),
                daemon=True,  # a hung coordinator must not keep the process alive
            )
            for k, rounds in enumerate(coordinators)
        ]
        for thread in threads:
            thread.start()
        t0 = time.perf_counter()
        deadline[0] = time.monotonic() + min(session.seconds, MAX_SECONDS)
        start.wait()
        for thread in threads:
            thread.join(MAX_SECONDS + 60.0)
        alive = any(thread.is_alive() for thread in threads)
    finally:
        report = server.stop()
    rounds = sum(r.get("rounds", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    elapsed = max((r.get("end", t0) for r in results), default=t0) - t0
    rtts = [x for r in results for x in r.get("rtts", [])]
    costs = [rnd["cost"] for c in coordinators for rnd in c]
    checks = {
        "coordinators finished": not alive and all("end" in r for r in results),
        "every allocate byte-equal and every outcome recorded": failed == 0,
        "store records == rounds sent": report.get("records") == rounds,
        "server drained cleanly": report.get("drained") is True,
    }
    session.result = {
        "setup_s": setup_s,
        "checks": checks,
        "attempted": rounds,
        "failed": failed,
        "ops": rounds,
        "ops_time_s": elapsed,
        "raw_ops_per_s": rounds / elapsed if elapsed > 0 else None,
        "latency_s": rtts,
        "train_cost": sum(costs) / len(costs),
        "peak_rss_mb": report.get("peak_rss_mb", float("nan")),
    }
    if report.get("spans"):
        session.result["spans"] = report["spans"]
