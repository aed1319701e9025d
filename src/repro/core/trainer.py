"""Algorithm 1: the offline DRL agent training procedure.

Mapping from the paper's pseudocode to this implementation:

* line 1  (init networks)            -> :class:`repro.rl.agent.PPOAgent`
* line 2  (load network dataset)     -> the env's trace-driven system
* line 3  (replay buffer D, device info) -> agent buffer / DeviceFleet
* line 4  (theta_a_old <- theta_a)   -> agent.actor_old sync
* line 5  (for each episode)         -> :meth:`OfflineTrainer.train`
* line 6  (random start time t^1)    -> ``venv.reset()`` with random_start
* lines 7-10 (initial state s_1)     -> FLSystem.bandwidth_state()
* lines 11-23 (the step loop), in
  :meth:`repro.parallel.VecRolloutCollector.run_episode_batch`:

  - line 12 (sample action from theta_a_old) -> ``agent.act_batch``
  - line 13 (devices train at delta)   -> ``venv.step``
  - line 14 (reward, Eq. 13)           -> IterationResult.reward
  - lines 15-23 (store in D; when full: M PPO epochs, critic
    regression on r + gamma V(s'), re-sync theta_old, clear D)
    -> ``agent.observe_batch``

Every run goes through that one loop: a single env (the default) is a
one-env :class:`repro.parallel.SerialVecEnv` around the trainer's own
env object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.core.callbacks import TrainingHistory
from repro.env.fl_env import FLSchedulingEnv
from repro.obs import get_telemetry
from repro.rl.agent import AgentConfig, PPOAgent
from repro.rl.ppo import PPOConfig
from repro.utils.rng import SeedLike, as_generator


def _default_ppo_config() -> PPOConfig:
    """PPO hyperparameters tuned for the FL scheduling environment.

    The task is near-contextual-bandit (actions couple to future states
    only through the wall clock), so a small discount and aggressive
    learning rates converge far faster than the generic PPO defaults.
    """
    return PPOConfig(
        actor_lr=1e-3,
        critic_lr=3e-3,
        gamma=0.9,
        gae_lambda=0.9,
        epochs=10,
        minibatch_size=128,
        entropy_coef=1e-3,
        target_kl=0.05,
    )


@dataclass
class TrainerConfig:
    """Offline-training hyperparameters (testbed-preset defaults)."""

    n_episodes: int = 800
    hidden: tuple = (64, 64)
    buffer_size: int = 512        # |D|
    ppo: PPOConfig = field(default_factory=_default_ppo_config)
    normalize_obs: bool = True
    scale_rewards: bool = True
    init_log_std: float = -1.0
    #: "ppo" (paper), "a2c" (repro.rl.a2c) or "ddpg" (repro.rl.ddpg).
    algorithm: str = "ppo"
    #: "dense" (paper's flat-state MLP) or "shared" (permutation-shared
    #: per-device actor — repro.rl.shared_policy; PPO/A2C only).
    policy: str = "dense"
    #: Stop early once the smoothed episode cost stabilizes (0 disables).
    early_stop_window: int = 0
    early_stop_rel_tol: float = 0.02
    #: Save a resumable checkpoint every this many episodes (0 disables).
    checkpoint_every: int = 0
    #: Destination .npz for periodic checkpoints (required when enabled).
    checkpoint_path: Optional[str] = None
    #: Checkpoint generations kept on disk (rotation ``path``, ``path.1``,
    #: ...); resume falls back through them when the newest is corrupt.
    checkpoint_keep: int = 1
    #: Parallel rollout collection (repro.parallel).  ``num_envs`` envs
    #: step in lockstep through one stacked policy forward pass;
    #: ``workers > 0`` shards them over subprocesses.  Either needs
    #: ``OfflineTrainer(env_spec=...)``; the default (1 env, 0 workers)
    #: steps the trainer's own env in process.
    num_envs: int = 1
    workers: int = 0
    #: Self-healing workers (repro.resilience): crashed/hung subprocess
    #: workers are respawned, resynced and the in-flight step replayed
    #: instead of aborting the run.  Requires ``workers > 0``.
    supervise: bool = False
    #: Total worker-restart budget before the supervisor escalates.
    max_restarts: int = 8

    def validate(self) -> "TrainerConfig":
        if self.n_episodes <= 0:
            raise ValueError("n_episodes must be positive")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.supervise and self.workers <= 0:
            raise ValueError(
                "supervise=True needs subprocess workers (workers > 0); "
                "a crash in the parent process cannot be supervised"
            )
        if self.num_envs <= 0:
            raise ValueError("num_envs must be positive")
        if self.num_envs > self.buffer_size:
            raise ValueError("num_envs cannot exceed buffer_size")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.algorithm == "ddpg" and (self.num_envs > 1 or self.workers > 0):
            raise ValueError(
                "vectorized collection supports ppo/a2c only, not ddpg "
                "(its replay memory is inherently sequential here)"
            )
        self.ppo.validate()
        return self


class OfflineTrainer:
    """Trains a PPO agent on an :class:`FLSchedulingEnv` (Algorithm 1)."""

    def __init__(
        self,
        env: Optional[FLSchedulingEnv] = None,
        config: Optional[TrainerConfig] = None,
        rng: SeedLike = None,
        env_spec=None,
    ):
        self.config = (config or TrainerConfig()).validate()
        if env is None and env_spec is None:
            raise ValueError("OfflineTrainer needs an env or an env_spec")
        if self._spec_built and env_spec is None:
            raise ValueError(
                "vectorized training (num_envs > 1 / workers > 0) requires "
                "env_spec — workers rebuild envs from its picklable recipe"
            )
        #: Picklable recipe for (re)building envs in vec workers.
        self.env_spec = env_spec
        if env is None:
            env = env_spec.build(0)
        #: Provides dims for network construction, and *is* env 0 when
        #: training steps one env in process.
        self.env = env
        #: Live vectorized env while train() runs (checkpoints read its
        #: per-env RNG streams).
        self._vec_env = None
        #: RNG streams restored by resume() before the vec env exists.
        self._pending_vec_rng = None
        #: Next episode index; advanced by :meth:`train`, restored by
        #: :meth:`resume` so an interrupted run continues where it died.
        self._episode = 0
        #: True when the last :meth:`train` call stopped early because a
        #: ``stop`` predicate (e.g. a SIGTERM drain) fired.
        self.drained = False
        rng = as_generator(rng)
        if self.config.algorithm == "ddpg":
            from repro.rl.ddpg import DDPGAgent, DDPGConfig

            self.agent = DDPGAgent(
                DDPGConfig(
                    obs_dim=env.obs_dim,
                    act_dim=env.act_dim,
                    hidden=tuple(self.config.hidden),
                    gamma=self.config.ppo.gamma,
                    normalize_obs=self.config.normalize_obs,
                    scale_rewards=self.config.scale_rewards,
                ),
                rng=rng,
            )
            self.history = TrainingHistory()
            return
        agent_config = AgentConfig(
            obs_dim=env.obs_dim,
            act_dim=env.act_dim,
            hidden=tuple(self.config.hidden),
            buffer_size=self.config.buffer_size,
            n_envs=self.config.num_envs,
            normalize_obs=self.config.normalize_obs,
            scale_rewards=self.config.scale_rewards,
            init_log_std=self.config.init_log_std,
            algorithm=self.config.algorithm,
            policy=self.config.policy,
            ppo=self.config.ppo,
        )
        self.agent = PPOAgent(agent_config, rng=rng)
        self.history = TrainingHistory()

    @property
    def _spec_built(self) -> bool:
        """Whether train() builds its envs from ``env_spec``."""
        return self.config.num_envs > 1 or self.config.workers > 0

    def _make_vec_env(self):
        from repro.parallel import SerialVecEnv, make_vec_env

        cfg = self.config
        if not self._spec_built:
            return SerialVecEnv.from_envs([self.env])
        supervisor = None
        if cfg.supervise:
            from repro.resilience.supervisor import SupervisorConfig

            supervisor = SupervisorConfig(max_restarts=cfg.max_restarts)
        return make_vec_env(
            self.env_spec, cfg.num_envs, workers=cfg.workers,
            supervise=cfg.supervise, supervisor=supervisor,
        )

    def train(self, progress_callback=None, stop=None) -> TrainingHistory:
        """Run the full offline training (the ``for episode`` loop).

        Episodes advance ``num_envs`` at a time, one
        :meth:`~repro.parallel.VecRolloutCollector.run_episode_batch`
        each.  Starts from :attr:`_episode` (0 on a fresh trainer, the
        stored episode after :meth:`resume`), so a killed run picks up
        exactly where its last checkpoint left off.  Checkpoints land
        only at batch boundaries, so resuming needs just the
        agent/optimizer state, the partially-filled buffer and every RNG
        stream — no mid-episode simulator state.

        ``stop`` is an optional zero-argument predicate checked after
        every episode batch; when it returns true — e.g. a
        :class:`repro.resilience.GracefulDrain` armed by SIGTERM — the
        trainer finishes the in-flight batch, writes a final checkpoint
        (if a checkpoint path is configured), sets :attr:`drained` and
        returns.
        """
        from repro.parallel import VecRolloutCollector

        cfg = self.config
        n = cfg.num_envs
        self.drained = False
        with self._make_vec_env() as venv:
            self._vec_env = venv
            try:
                if self._pending_vec_rng is not None:
                    venv.set_rng_states(self._pending_vec_rng)
                    self._pending_vec_rng = None
                collector = VecRolloutCollector(venv, self.agent, history=self.history)
                tel = get_telemetry()
                while self._episode < cfg.n_episodes:
                    san = _sanitizer.ACTIVE
                    if san is not None:
                        san.note_episode(self._episode)
                    self.agent.updater.set_progress(
                        self._episode / max(cfg.n_episodes - 1, 1)
                    )
                    summaries = collector.run_episode_batch()
                    prev = self._episode
                    self._episode = prev + n
                    if tel.enabled:
                        # Episode records must precede the checkpoint so a
                        # resume's rewind never drops an already-counted
                        # episode from the log.
                        for i, summary in enumerate(summaries):
                            tel.event("episode", index=prev + i, **summary)
                    if cfg.checkpoint_every > 0 and (
                        prev // cfg.checkpoint_every
                        != self._episode // cfg.checkpoint_every
                    ):
                        self.save_checkpoint(cfg.checkpoint_path)
                    if progress_callback is not None:
                        for i, summary in enumerate(summaries):
                            progress_callback(prev + i, summary)
                    if stop is not None and stop():
                        self._drain()
                        break
                    if cfg.early_stop_window > 0 and self.history.converged(
                        window=cfg.early_stop_window,
                        rel_tol=cfg.early_stop_rel_tol,
                    ):
                        break
            finally:
                self._vec_env = None
        self.agent.freeze()
        return self.history

    def _drain(self) -> None:
        """Cooperative stop: persist a resumable final checkpoint."""
        self.drained = True
        if self.config.checkpoint_path:
            self.save_checkpoint(self.config.checkpoint_path)

    def save_agent(self, path: str) -> None:
        self.agent.save(path)

    # -- crash-safe checkpointing ------------------------------------------
    def _rng_streams(self) -> dict:
        """Every RNG whose stream position defines the run's future."""
        streams = {"env": self.env.rng}
        if hasattr(self.agent, "_sample_rng"):
            streams["sample"] = self.agent._sample_rng
        if hasattr(self.agent, "_rng"):
            streams["agent"] = self.agent._rng
        updater = self.agent.updater
        if updater is not self.agent and hasattr(updater, "rng"):
            streams["update"] = updater.rng
        return streams

    def save_checkpoint(self, path: str) -> None:
        """Persist the *complete* training state, resumable bit-exactly.

        Beyond the agent weights this captures the optimizer moments, the
        partially-filled rollout buffer (or DDPG replay memory), the
        training history and the position of every RNG stream — so
        :meth:`resume` + :meth:`train` reproduces the uninterrupted run.
        """
        from repro.utils.serialization import pack_rng_state, save_npz_state

        state = {f"agent/{k}": v for k, v in self.agent.state_dict().items()}
        state["trainer/episode"] = np.asarray(self._episode)
        for key, val in self.history.as_dict().items():
            state[f"history/{key}"] = val
        updater = self.agent.updater
        for name, opt in (("actor", updater.actor_opt), ("critic", updater.critic_opt)):
            for key, val in opt.state_dict().items():
                state[f"opt/{name}/{key}"] = val
        buf = getattr(self.agent, "buffer", None)
        if buf is not None:
            state["buffer/size"] = np.asarray(len(buf))
            for key in (
                "states", "actions", "rewards", "next_states",
                "dones", "log_probs", "values", "env_ids",
            ):
                state[f"buffer/{key}"] = getattr(buf, key)
        mem = getattr(self.agent, "memory", None)
        if mem is not None:
            state["replay/size"] = np.asarray(len(mem))
            state["replay/next"] = np.asarray(mem._next)
            for key in ("states", "actions", "rewards", "next_states", "dones"):
                state[f"replay/{key}"] = getattr(mem, key)
        for name, gen in self._rng_streams().items():
            state[f"rng/{name}"] = pack_rng_state(gen)
        # Each env's stream lives in the vec env (possibly in a remote
        # worker); capture them all so resume replays bit-exactly.
        if self._vec_env is not None:
            from repro.utils.serialization import pack_state_dict

            for i, rng_state in enumerate(self._vec_env.get_rng_states()):
                state[f"rng/venv{i}"] = pack_state_dict(rng_state)
        elif self._pending_vec_rng is not None:
            from repro.utils.serialization import pack_state_dict

            for i, rng_state in enumerate(self._pending_vec_rng):
                state[f"rng/venv{i}"] = pack_state_dict(rng_state)
        tel = get_telemetry()
        if tel.enabled:
            # The resume watermark: every event emitted so far is part of
            # the checkpointed past (state_dict() flushes the sink first).
            state["obs/seq"] = np.asarray(tel.state_dict()["seq"])
        # Durable publication: fsync-before-rename + sha256 sidecar, and
        # (checkpoint_keep > 1) a rotation of last-good generations that
        # resume() falls back through on corruption.
        save_npz_state(path, state, keep=self.config.checkpoint_keep)

    def resume(self, path: str) -> int:
        """Restore a :meth:`save_checkpoint` state; returns the episode.

        The trainer must have been constructed with the same environment
        and configuration as the one that wrote the checkpoint.

        Verifies the checkpoint's sha256 sidecar; a truncated/corrupt
        newest generation falls back through the ``checkpoint_keep``
        rotation (``path.1``, ``path.2``, ...) to the newest good one.
        """
        from repro.resilience.checkpoint import load_checkpoint_with_fallback
        from repro.utils.serialization import unpack_rng_state

        state, _used = load_checkpoint_with_fallback(
            path, keep=self.config.checkpoint_keep
        )

        def _sub(prefix: str) -> dict:
            cut = len(prefix)
            return {k[cut:]: v for k, v in state.items() if k.startswith(prefix)}

        self.agent.load_state_dict(_sub("agent/"))
        self._episode = int(np.asarray(state["trainer/episode"]))
        self.history = TrainingHistory()
        self.history.load_dict(_sub("history/"))
        updater = self.agent.updater
        updater.actor_opt.load_state_dict(_sub("opt/actor/"))
        updater.critic_opt.load_state_dict(_sub("opt/critic/"))
        buf = getattr(self.agent, "buffer", None)
        if buf is not None and "buffer/size" in state:
            for key in (
                "states", "actions", "rewards", "next_states",
                "dones", "log_probs", "values", "env_ids",
            ):
                # env_ids is absent from pre-vectorization checkpoints.
                if f"buffer/{key}" in state:
                    getattr(buf, key)[...] = state[f"buffer/{key}"]
            buf._size = int(np.asarray(state["buffer/size"]))
        mem = getattr(self.agent, "memory", None)
        if mem is not None and "replay/size" in state:
            for key in ("states", "actions", "rewards", "next_states", "dones"):
                getattr(mem, key)[...] = state[f"replay/{key}"]
            mem._size = int(np.asarray(state["replay/size"]))
            mem._next = int(np.asarray(state["replay/next"]))
        for name, gen in self._rng_streams().items():
            key = f"rng/{name}"
            if key in state:
                unpack_rng_state(gen, state[key])
        venv_keys = sorted(
            (k for k in state if k.startswith("rng/venv")),
            key=lambda k: int(k[len("rng/venv"):]),
        )
        if venv_keys:
            from repro.utils.serialization import unpack_state_dict

            streams = [unpack_state_dict(state[k]) for k in venv_keys]
            if self._vec_env is not None:
                self._vec_env.set_rng_states(streams)
            else:
                # train() applies these once the vec env exists.
                self._pending_vec_rng = streams
        if "obs/seq" in state:
            tel = get_telemetry()
            if tel.enabled:
                # Discard events the crashed run emitted after its last
                # checkpoint; the resumed run re-emits them exactly once.
                tel.rewind(int(np.asarray(state["obs/seq"])))
        return self._episode
