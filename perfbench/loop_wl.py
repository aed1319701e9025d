"""``loop-drift``: LoopController reacting to seeded step drift.

Each pass plays ``SCENARIOS`` drift scenarios, derived from the seed, in
turn.  A scenario is the testbed fleet on stationary noisy traces, a
weakly trained incumbent exported as ``policy-v0001``, and a bandwidth
collapse (``inject_step_drift``, factor ``DRIFT_FACTOR``) a few rounds
after the drift baseline freezes.  ``LoopController`` with inline
retraining serves ``ROUNDS`` rounds of it: Page–Hinkley detection,
experience appends, warm-start retrains, the paired-t canary and durable
publishes all run.  With these settings a scenario's first reaction
usually retrains on a replay window that still holds pre-drift rounds
and is rejected; the re-trigger after the cooldown retrains on
post-drift experience and is published in over half of the scenarios
(53-63% in sweeps of 30 and 32 seeds), so a pass has both outcomes and
about two reactions per scenario.

A run makes whole passes until the time is up, and at least
``MIN_PASSES``.  Timing (:mod:`perfbench.marks`): the start and end of
every ``LoopController.step`` are marked, and so is the end of every
``FLSystem.step`` and ``PPOUpdater.update`` inside it, which paces the
host-speed calibration; every round's time is scaled to the reference
host by the snippets run within it, or the nearest one.  The latency samples are the reaction rounds' times, and
``ops_per_s`` is the other rounds over the sum of their times: the
monitored serving path.  Reactions are left out of the rate because
their number per pass depends on the seed (37-41 in a 20-scenario
pass), which would move a mixed rate by about 10% from seed to seed;
they are measured by the latency instead.

Every input — traces, drift slot, incumbent checkpoint — is generated in
the ``prepare`` process.  Every pass must reproduce the first one's
lifecycle counters and reaction rounds exactly, and the run must contain
at least one publish and one reject.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Dict, List, Tuple

from perfbench.child import FLEET_SEED, MAX_SECONDS, Session
from perfbench.marks import Marks

#: Scenarios per pass; a pass has about 40 reactions, enough for a p50.
SCENARIOS = 20
#: Scenario ``i`` of benchmark seed ``s`` has seed ``SEED_STRIDE * s + i``.
SEED_STRIDE = 56
#: Passes a run needs before it may stop, so passes are compared.
MIN_PASSES = 2
WARMUP_ROUNDS = 10
#: Rounds served before the drift hits (baseline frozen + 4).
PRE_DRIFT_ROUNDS = WARMUP_ROUNDS + 4
ROUNDS = 60
DRIFT_FACTOR = 0.3
TRACE_SLOTS = 6000
COUNTERS = ("drift_events", "retrains", "publishes", "rejects", "rollbacks")


def _scenario_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def _loop_config():
    from repro.loop import CanaryConfig, LoopConfig, RetrainConfig

    return LoopConfig(
        warmup_rounds=WARMUP_ROUNDS,
        drift_min_samples=4,
        cooldown_rounds=8,
        max_publishes=1,
        replay_last_n=8,
        retrain=RetrainConfig(episodes=24, episode_length=16, buffer_size=64, seed=1),
        canary=CanaryConfig(iterations=12, watch_rounds=4),
    )


def _flat_traces(seed: int, n_devices: int, slot: float):
    from repro.traces.base import BandwidthTrace
    from repro.utils.rng import RngFactory

    rngs = RngFactory(seed).spawn("loop-traces", n_devices)
    return [
        BandwidthTrace(rng.uniform(27.0, 33.0, TRACE_SLOTS), slot, name=f"flat-{i}")
        for i, rng in enumerate(rngs)
    ]


def prepare(session: Session) -> None:
    """Every scenario's incumbent, traces and drift slot, from the seed."""
    import numpy as np

    from repro.core.trainer import OfflineTrainer, TrainerConfig
    from repro.experiments.presets import TESTBED_PRESET, build_env, build_fleet
    from repro.loop import inject_step_drift
    from repro.serve import export_policy
    from repro.serve.artifact import PolicyArtifact
    from repro.sim.system import FLSystem

    config = TESTBED_PRESET.system_config()
    start = (config.history_slots + 1) * config.slot_duration
    for index in range(SCENARIOS):
        seed = _scenario_seed(session.seed, index)
        folder = os.path.join(session.work, f"scenario-{index:02d}")
        os.makedirs(os.path.join(folder, "registry"))
        fleet = build_fleet(TESTBED_PRESET, seed=FLEET_SEED)
        env = build_env(TESTBED_PRESET, seed=FLEET_SEED, episode_length=16, env_rng=seed)
        trainer = OfflineTrainer(
            env, TrainerConfig(n_episodes=2, buffer_size=64), rng=seed
        )
        trainer.train()
        checkpoint = os.path.join(folder, "agent.npz")
        trainer.save_agent(checkpoint)
        artifact_path = os.path.join(folder, "registry", "policy-v0001.policy.npz")
        export_policy(checkpoint, artifact_path, fleet.max_frequencies)
        # The drift slot: where the clock stands after the pre-drift
        # rounds (round length depends on the state, so it is probed).
        traces = _flat_traces(seed, fleet.n, config.slot_duration)
        probe = FLSystem(fleet.with_traces(traces), config)
        probe.reset(start)
        incumbent = PolicyArtifact.load(artifact_path)
        for _ in range(PRE_DRIFT_ROUNDS):
            probe.step(incumbent.act(probe.bandwidth_state().ravel()))
        at_slot = int(probe.clock / config.slot_duration) + 2
        drifted = inject_step_drift(traces, DRIFT_FACTOR, at_slot)
        np.save(os.path.join(folder, "traces.npy"), np.stack([t.values for t in drifted]))
        with open(os.path.join(folder, "scenario.json"), "w") as fh:
            json.dump({"seed": seed, "at_slot": at_slot}, fh)


class Scenario:
    """One prepared scenario, loaded once; :meth:`controller` builds a
    fresh controller over a fresh copy of its registry."""

    def __init__(self, folder: str) -> None:
        import numpy as np

        from repro.experiments.presets import TESTBED_PRESET, build_fleet
        from repro.traces.base import BandwidthTrace

        with open(os.path.join(folder, "scenario.json")) as fh:
            meta = json.load(fh)
        self.folder = folder
        self.config = TESTBED_PRESET.system_config()
        values = np.load(os.path.join(folder, "traces.npy"))
        traces = [
            BandwidthTrace(row, self.config.slot_duration, name=f"flat-{i}+drift")
            for i, row in enumerate(values)
        ]
        self.fleet = build_fleet(TESTBED_PRESET, seed=FLEET_SEED).with_traces(traces)
        slot = self.config.slot_duration
        self.start = (self.config.history_slots + 1) * slot
        self.post_start = (meta["at_slot"] + self.config.history_slots + 1) * slot
        self.runs = 0

    def _system(self, start: float):
        from repro.sim.system import FLSystem

        system = FLSystem(self.fleet, self.config)
        system.reset(start)
        return system

    def controller(self, scratch: str):
        from repro.loop import ExperienceStore, LoopController
        from repro.serve import PolicyRegistry

        self.runs += 1
        run_dir = os.path.join(scratch, f"{os.path.basename(self.folder)}-{self.runs}")
        registry_dir = os.path.join(run_dir, "registry")
        shutil.copytree(os.path.join(self.folder, "registry"), registry_dir)
        return LoopController(
            self._system(self.start),
            PolicyRegistry(registry_dir),
            ExperienceStore(os.path.join(run_dir, "experience")),
            os.path.join(self.folder, "agent.npz"),
            os.path.join(run_dir, "loop"),
            config=_loop_config(),
            canary_factory=lambda: self._system(self.post_start),
        ), run_dir


def _play(controller, marks: Marks, rounds: List[Tuple[int, int]],
          reactions: List[int]) -> int:
    """Serve ``ROUNDS`` rounds, appending each round's marks to ``rounds``
    and the positions of reaction rounds to ``reactions``; returns the
    failed reactions."""
    failed = 0
    for _ in range(ROUNDS):
        drifts, publishes, rejects, decision = (
            controller.drift_events, controller.publishes,
            controller.rejects, controller.last_decision,
        )
        start = marks.mark()
        controller.step()
        rounds.append((start, marks.mark()))
        if controller.publishes + controller.rejects > publishes + rejects:
            reactions.append(len(rounds) - 1)
            if controller.last_decision is decision:
                failed += 1  # rejected as unusable, not by the gate
        elif (controller.drift_events > drifts
              and publishes < controller.config.max_publishes):
            failed += 1  # the retrain failed
    return failed


def _counters(controller) -> Dict[str, int]:
    status = controller.status()
    return {key: int(status[key]) for key in COUNTERS}


def run(session: Session) -> None:
    from repro.rl.ppo import PPOUpdater
    from repro.sim.system import FLSystem

    if session.trace:
        session.install_tracer()
    count = 2 if session.smoke else SCENARIOS
    min_passes = 1 if session.trace else MIN_PASSES
    marks = Marks(calibrate=not session.trace)
    marks.after(FLSystem, "step")
    marks.after(PPOUpdater, "update")
    scenarios: Dict[int, Scenario] = {}

    def scenario(index: int) -> Scenario:
        # Loaded on first use: set-up covers the first scenario only.
        if index not in scenarios:
            scenarios[index] = Scenario(
                os.path.join(session.work, f"scenario-{index:02d}")
            )
        return scenarios[index]

    scratch = os.path.join(session.work, f"runs-{os.getpid()}")
    controller, run_dir = scenario(0).controller(scratch)
    if not session.first_op():
        return
    deadline = session.deadline()
    hard_stop = time.monotonic() + MAX_SECONDS
    round_s: List[float] = []
    reaction_s: List[float] = []
    raw_round_s = 0.0
    layouts: List[List[int]] = []
    counters: List[List[Dict[str, int]]] = []
    costs: List[float] = []
    failed = 0
    while True:
        marks.clear()
        rounds: List[Tuple[int, int]] = []
        reactions: List[int] = []
        pass_counters = []
        for index in range(count):
            if layouts or index:
                controller, run_dir = scenario(index).controller(scratch)
            failed += _play(controller, marks, rounds, reactions)
            pass_counters.append(_counters(controller))
            if not layouts:
                costs.append(float(controller.store.arrays()["costs"].mean()))
            shutil.rmtree(run_dir)
        times = marks.scaled(rounds)
        reacted = set(reactions)
        monitored = [i for i in range(len(rounds)) if i not in reacted]
        round_s.extend(times[i] for i in monitored)
        reaction_s.extend(times[i] for i in reactions)
        raw = marks.segments(rounds)
        raw_round_s += sum(raw[i] for i in monitored)
        layouts.append(reactions)
        counters.append(pass_counters)
        now = time.monotonic()
        if now >= hard_stop or (now >= deadline and len(layouts) >= min_passes):
            break
    totals = {key: sum(c[key] for c in counters[0]) for key in COUNTERS}
    checks = {
        f"at least {min_passes} complete passes": len(layouts) >= min_passes,
        "every pass reproduces the first (counters and reaction rounds)": all(
            c == counters[0] for c in counters
        ) and all(r == layouts[0] for r in layouts),
        "at least one publish": totals["publishes"] >= 1,
        "at least one reject": totals["rejects"] >= 1,
        "no failed retrain or unusable candidate": failed == 0,
    }
    attempted = len(round_s) + len(reaction_s)
    session.result = {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "ops": len(round_s),
        "ops_time_s": sum(round_s),
        "latency_s": reaction_s,
        "train_cost": sum(costs) / len(costs),
        "counters": totals,
        "passes": len(layouts),
        "raw_ops_per_s": len(round_s) / raw_round_s if raw_round_s > 0 else None,
        "host_scale": sum(round_s) / raw_round_s if raw_round_s > 0 else None,
    }
