"""``train-sim50``: Algorithm 1 through OfflineTrainer on the N=50 preset.

The timed phase repeats one fixed training run — ``REP_CYCLES`` update
cycles from a fresh seeded trainer, 8 in-process envs — until the time
is up, and at least ``MIN_REPS`` times, stopping only between
repetitions.  An update cycle is one 8-env
episode batch (64 ``SerialVecEnv.step`` calls, 512 transitions) plus one
PPO update.  Every complete repetition must leave the same
training-history digest, and its final cycle's mean Eq. 9 cost is
``train_cost``.

Timing (:mod:`perfbench.marks`): the end of every ``SerialVecEnv.step``
and ``PPOUpdater.update`` call is marked, and a cycle runs from the end
of one update to the end of the next, so the first cycle of each
repetition, which builds the vec-env, is not timed.  Every cycle time
is scaled to the reference host by the calibration snippets run within
it (:meth:`perfbench.marks.Marks.scaled`); the unscaled rate is
reported as ``raw_ops_per_s``.

The fleet and traces are the preset's own (seed ``FLEET_SEED``), so the
benchmark seed moves the stochastic parts of training — network
initialisation, episode start times, action noise — and not the world,
which keeps ``train_cost`` comparable across seeds.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import List

from perfbench.child import FLEET_SEED, MAX_SECONDS, Session
from perfbench.marks import Marks

#: Episodes per update cycle: 8 envs x 64 steps = 512 = the default |D|.
EPISODES_PER_CYCLE = 8
TRANSITIONS_PER_CYCLE = 512
#: Update cycles per repetition; all but the first are timed.
REP_CYCLES = 21
#: Repetitions a run needs before it may stop, so digests are compared.
MIN_REPS = 2


def history_digest(history) -> str:
    """sha256 over every per-episode and per-update figure, bit-exact."""
    h = hashlib.sha256()
    for name in (
        "episode_costs", "episode_rewards", "episode_times", "episode_energies",
        "update_policy_losses", "update_value_losses", "update_kls",
    ):
        h.update(name.encode())
        h.update(b"".join(float(v).hex().encode() for v in getattr(history, name)))
    h.update(str(history.skipped_updates).encode())
    return h.hexdigest()


def _build(session: Session, cycles: int):
    from repro.core.trainer import OfflineTrainer, TrainerConfig
    from repro.experiments.presets import SIMULATION_PRESET, build_env_spec

    spec = build_env_spec(SIMULATION_PRESET, seed=FLEET_SEED, stream_seed=session.seed)
    config = TrainerConfig(
        n_episodes=cycles * EPISODES_PER_CYCLE, num_envs=EPISODES_PER_CYCLE, workers=0
    )
    return OfflineTrainer(None, config, rng=session.seed, env_spec=spec)


def run(session: Session) -> None:
    from repro.parallel.vec_env import SerialVecEnv
    from repro.rl.ppo import PPOUpdater

    if session.trace:
        session.install_tracer()
    cycles = 2 if session.smoke else REP_CYCLES
    min_reps = 1 if session.trace else MIN_REPS
    marks = Marks(calibrate=not session.trace)
    updates: List[int] = []
    marks.after(SerialVecEnv, "step")
    marks.after(PPOUpdater, "update", record=updates)
    trainer = _build(session, cycles)
    if not session.first_op():
        return
    deadline = session.deadline()
    hard_stop = time.monotonic() + MAX_SECONDS
    cycle_s: List[float] = []
    raw_s = 0.0
    digests: List[str] = []
    costs: List[float] = []
    started = 0

    def past_hard_stop() -> bool:
        return time.monotonic() >= hard_stop

    while True:
        if started:
            trainer = _build(session, cycles)
        started += 1
        marks.clear()
        updates.clear()
        history = trainer.train(stop=past_hard_stop)
        if len(updates) == cycles:
            # A timed cycle runs from the end of one update to the end of the next.
            spans = list(zip(updates, updates[1:]))
            cycle_s.extend(marks.scaled(spans))
            raw_s += sum(marks.segments(spans))
            digests.append(history_digest(history))
            costs.append(
                sum(history.episode_costs[-EPISODES_PER_CYCLE:]) / EPISODES_PER_CYCLE
            )
        now = time.monotonic()
        if now >= hard_stop or (now >= deadline and len(digests) >= min_reps):
            break
    ops = TRANSITIONS_PER_CYCLE * len(cycle_s)
    cost = costs[0] if costs else float("nan")
    checks = {
        f"at least {min_reps} complete repetitions": len(digests) >= min_reps,
        "history digest identical across repetitions": len(set(digests)) == 1,
        "train_cost finite": math.isfinite(cost),
        "train_cost identical across repetitions": len(set(costs)) == 1,
    }
    session.result = {
        "checks": checks,
        "attempted": ops,
        "failed": 0,
        "ops": ops,
        "ops_time_s": sum(cycle_s),
        "latency_s": cycle_s,
        "train_cost": cost,
        "repetitions": started,
        "raw_ops_per_s": ops / raw_s if raw_s > 0 else None,
        "host_scale": sum(cycle_s) / raw_s if raw_s > 0 else None,
    }
