"""Batched rollout collection over a :class:`VecEnv`: Algorithm 1's loop.

The collector runs one *episode batch*: every env resets, then the whole
batch steps in lockstep until every env's episode ends (no auto-reset).
Each step is lines 12-23 of Algorithm 1 for the active envs:

* line 12 (sample actions from ``theta_a_old``) -> ``agent.act_batch``,
  one stacked forward pass of the policy for all active envs;
* lines 13-14 (devices train, reward of Eq. 13) -> ``venv.step``;
* lines 15-23 (store in D; when D is full run the update, re-sync
  ``theta_a_old`` and clear D) -> ``agent.observe_batch``.

Transitions stream into the agent's :class:`repro.rl.buffer.RolloutBuffer`
tagged with their env index, so GAE later recovers each env's
time-ordered sub-trajectory exactly.  ``OfflineTrainer`` drives every
run through here, a single env included.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.obs import get_telemetry
from repro.parallel.vec_env import VecEnv


class VecRolloutCollector:
    """Synchronous episode-batch collector feeding a PPO/A2C/DDPG agent."""

    def __init__(self, vec_env: VecEnv, agent, history=None):
        self.vec_env = vec_env
        self.agent = agent
        self.history = history
        # Names the update in telemetry; only DDPGConfig has no algorithm.
        self.algorithm = getattr(agent.config, "algorithm", "ddpg")

    def run_episode_batch(self) -> List[dict]:
        """Run one episode in every env; returns per-env summaries.

        Finished envs drop out of the policy batch (their stale
        observations must not pollute the running normalizer moments);
        the remaining envs keep stepping until the whole batch is done.
        """
        venv, agent = self.vec_env, self.agent
        n = venv.n_envs
        tel = get_telemetry()
        clock = time.perf_counter
        t_batch = clock()
        policy_s = env_s = 0.0
        total_steps = batch_iters = 0
        # ``obs`` holds the rows of the still-active envs ``idx``, in order.
        obs = venv.reset()
        active = np.ones(n, dtype=bool)
        idx = np.arange(n)
        # Per env: (cost, reward, time, energy) of every step.
        steps: List[list] = [[] for _ in range(n)]
        while idx.size:
            t0 = clock()
            actions, log_probs, values = agent.act_batch(obs)
            t1 = clock()
            if idx.size == n:
                full_actions = actions
            else:
                full_actions = np.zeros((n, venv.act_dim), dtype=np.float64)
                full_actions[idx] = actions
            next_obs, rewards, dones, infos = venv.step(full_actions, active)
            if idx.size < n:
                next_obs, rewards, dones = next_obs[idx], rewards[idx], dones[idx]
            t2 = clock()
            stats = agent.observe_batch(
                idx, obs, actions, rewards, next_obs, dones, log_probs, values,
            )
            t3 = clock()
            if stats is not None:
                if self.history is not None:
                    self.history.record_update(stats)
                tel.on_update(stats, self.algorithm, wall_s=t3 - t2)
            policy_s += t1 - t0
            env_s += t2 - t1
            total_steps += idx.size
            batch_iters += 1
            for j, i in enumerate(idx.tolist()):
                info = infos[i]
                steps[i].append((info["cost"], float(rewards[j]),
                                 info["iteration_time_s"], info["total_energy"]))
            if dones.any():
                keep = ~dones
                active[idx[dones]] = False
                idx, next_obs = idx[keep], next_obs[keep]
            obs = next_obs
        summaries = []
        for rows in steps:
            cost, reward, time_s, energy = (float(np.mean(col)) for col in zip(*rows))
            summary = {
                "avg_cost": cost,
                "avg_reward": reward,
                "avg_time_s": time_s,
                "avg_energy": energy,
                "episode_len": len(rows),
            }
            if self.history is not None:
                self.history.record_episode(cost, reward, time_s, energy)
            summaries.append(summary)
        if tel.enabled:
            wall_s = clock() - t_batch
            tel.on_collector_batch(
                n_envs=n,
                workers=getattr(venv, "n_workers", 0),
                steps=total_steps,
                wall_s=wall_s,
                policy_s=policy_s,
                env_s=env_s,
                steps_per_sec=total_steps / wall_s if wall_s > 0 else 0.0,
                # Fraction of batch slots occupied by a still-active env;
                # 1.0 means no env ever idled waiting for stragglers.
                worker_utilization=(
                    total_steps / (n * batch_iters) if batch_iters else 0.0
                ),
            )
        return summaries
