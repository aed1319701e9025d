"""PPO agent: the actor/critic pair plus sampling policy ``theta_a_old``.

Algorithm 1 of the paper samples the environment with a frozen copy
``theta_a_old`` of the actor, updates ``theta_a`` for M epochs when the
replay buffer fills, then re-syncs ``theta_a_old <- theta_a`` and clears
the buffer.  :class:`PPOAgent` packages exactly that state machine, plus
observation/reward normalization and checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.rl.buffer import RolloutBuffer
from repro.rl.normalization import ObservationNormalizer, RewardScaler
from repro.rl.policy import Critic, GaussianActor
from repro.rl.ppo import PPOConfig, PPOUpdater, UpdateStats
from repro.utils.rng import SeedLike, as_generator
from repro.utils.serialization import load_npz_state, save_npz_state


@dataclass
class AgentConfig:
    """Architecture + buffer configuration for :class:`PPOAgent`."""

    obs_dim: int = 1
    act_dim: int = 1
    hidden: Tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    init_log_std: float = -0.5
    buffer_size: int = 256        # |D| of Algorithm 1
    #: Number of envs the rollout collector steps in lockstep, each
    #: feeding its own rows (and reward-return chain) into the buffer.
    n_envs: int = 1
    normalize_obs: bool = True
    scale_rewards: bool = True
    #: Policy-optimization algorithm: "ppo" (the paper's choice) or "a2c"
    #: (the ablation alternative, see repro.rl.a2c).
    algorithm: str = "ppo"
    #: Policy architecture: "dense" (the paper's flat-state MLP) or
    #: "shared" (permutation-shared per-device network that scales to any
    #: fleet size — repro.rl.shared_policy).
    policy: str = "dense"
    ppo: PPOConfig = field(default_factory=PPOConfig)

    def validate(self) -> "AgentConfig":
        if self.obs_dim <= 0 or self.act_dim <= 0:
            raise ValueError("obs_dim and act_dim must be positive")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.n_envs <= 0:
            raise ValueError("n_envs must be positive")
        if self.n_envs > self.buffer_size:
            raise ValueError("n_envs cannot exceed buffer_size")
        if self.algorithm not in ("ppo", "a2c"):
            raise ValueError("algorithm must be 'ppo' or 'a2c'")
        if self.policy not in ("dense", "shared"):
            raise ValueError("policy must be 'dense' or 'shared'")
        if self.policy == "shared" and self.obs_dim % self.act_dim != 0:
            raise ValueError(
                "shared policy requires obs_dim divisible by act_dim "
                "(N x (H+1) bandwidth-history observations)"
            )
        self.ppo.validate()
        return self


#: Env id of a lone transition (the one-row batch of :meth:`observe`).
_ENV0 = np.zeros(1, dtype=np.intp)
_ENV0.setflags(write=False)


class SingleTransitionMixin:
    """``act`` / ``observe`` on one transition, as one-row batch calls.

    The batch methods are the agent's only implementation; these keep
    the single-transition surface (online adaptation, interactive use)
    on exactly the same arithmetic and RNG streams.
    """

    def act(self, obs: np.ndarray) -> Tuple[np.ndarray, float, float]:
        """Sample one action; returns ``(action, log_prob, value)``."""
        actions, log_probs, values = self.act_batch(
            np.asarray(obs, dtype=np.float64)[None]
        )
        return actions[0], float(log_probs[0]), float(values[0])

    def observe(
        self, obs, action, reward, next_obs, done, log_prob=0.0, value=0.0
    ) -> Optional[UpdateStats]:
        """Store one transition of env 0 (see ``observe_batch``)."""
        return self.observe_batch(
            _ENV0,
            np.asarray(obs, dtype=np.float64)[None],
            np.asarray(action, dtype=np.float64)[None],
            np.array([reward], dtype=np.float64),
            np.asarray(next_obs, dtype=np.float64)[None],
            np.array([done], dtype=bool),
            np.array([log_prob], dtype=np.float64),
            np.array([value], dtype=np.float64),
        )


class PPOAgent(SingleTransitionMixin):
    """Actor-critic PPO agent with Algorithm-1 semantics.

    Offline training drives it through
    :class:`repro.parallel.VecRolloutCollector`, one row per env::

        actions, log_probs, values = agent.act_batch(obs)      # (N, obs_dim)
        next_obs, rewards, dones, infos = venv.step(actions)
        stats = agent.observe_batch(env_ids, obs, actions, rewards,
                                    next_obs, dones, log_probs, values)

    (``stats`` is not None when an update ran); :meth:`act` /
    :meth:`observe` are the same calls on a single transition, and
    during online reasoning::

        action = agent.policy_action(obs)   # deterministic, actor-only
    """

    def __init__(self, config: AgentConfig, rng: SeedLike = None):
        self.config = config.validate()
        root = as_generator(rng)
        init_rng, sample_rng, update_rng = (
            np.random.default_rng(int(root.integers(0, 2**63 - 1))) for _ in range(3)
        )
        if config.policy == "shared":
            from repro.rl.shared_policy import SharedGaussianActor

            h = config.obs_dim // config.act_dim

            def _make_actor(actor_rng):
                return SharedGaussianActor(
                    config.act_dim,
                    h,
                    hidden=config.hidden,
                    activation=config.activation,
                    init_log_std=config.init_log_std,
                    rng=actor_rng,
                )

        else:

            def _make_actor(actor_rng):
                return GaussianActor(
                    config.obs_dim,
                    config.act_dim,
                    hidden=config.hidden,
                    activation=config.activation,
                    init_log_std=config.init_log_std,
                    rng=actor_rng,
                )

        self.actor = _make_actor(init_rng)
        # The frozen sampling policy theta_a_old (Algorithm 1, line 4).
        self.actor_old = _make_actor(np.random.default_rng(0))
        self.actor_old.copy_weights_from(self.actor)
        self.critic = Critic(
            config.obs_dim, hidden=config.hidden, activation=config.activation, rng=init_rng
        )
        self.buffer = RolloutBuffer(
            config.buffer_size, config.obs_dim, config.act_dim, n_envs=config.n_envs
        )
        if config.algorithm == "a2c":
            from repro.rl.a2c import A2CUpdater

            self.updater = A2CUpdater(self.actor, self.critic, config.ppo, rng=update_rng)
        else:
            self.updater = PPOUpdater(self.actor, self.critic, config.ppo, rng=update_rng)
        if config.policy == "shared":
            from repro.rl.normalization import PerDeviceNormalizer

            self.obs_norm = PerDeviceNormalizer(
                config.obs_dim // config.act_dim, enabled=config.normalize_obs
            )
        else:
            self.obs_norm = ObservationNormalizer(
                config.obs_dim, enabled=config.normalize_obs
            )
        self.reward_scaler = RewardScaler(
            gamma=config.ppo.gamma, enabled=config.scale_rewards, n_envs=config.n_envs
        )
        self._sample_rng = sample_rng
        self.total_steps = 0
        self.total_updates = 0

    # -- acting ------------------------------------------------------------
    def act_batch(self, obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample actions from ``theta_a_old`` for ``(N, obs_dim)`` states.

        One forward pass serves all N envs; returns ``(actions (N, A),
        log_probs (N,), values (N,))``.
        """
        norm_obs = self.obs_norm(obs)
        dist = self.actor_old.distribution(norm_obs)
        actions = dist.sample(self._sample_rng)
        log_probs = dist.log_prob(actions)
        values = self.critic.value(norm_obs)
        return actions, log_probs, values

    def policy_action(self, obs: np.ndarray) -> np.ndarray:
        """Deterministic action from the *trained* actor (online reasoning).

        Runs the batch-stable inference kernel (``mean_infer``) rather
        than the training forward, so the result is bit-identical to what
        the exported serving artifact (:mod:`repro.serve`) computes for
        the same state — singly or inside any micro-batch.
        """
        norm_obs = self.obs_norm.normalize_frozen(obs)
        return self.actor.mean_infer(norm_obs)[0]

    def policy_action_batch(self, obs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`policy_action` over ``(B, obs_dim)`` states.

        One stable forward serves the whole batch; row ``i`` equals
        ``policy_action(obs[i])`` bit-for-bit.
        """
        norm_obs = self.obs_norm.normalize_frozen(
            np.atleast_2d(np.asarray(obs, dtype=np.float64))
        )
        return self.actor.mean_infer(norm_obs)

    # -- learning ----------------------------------------------------------
    def observe_batch(
        self,
        env_ids: np.ndarray,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_obs: np.ndarray,
        dones: np.ndarray,
        log_probs: np.ndarray,
        values: np.ndarray,
    ) -> Optional[UpdateStats]:
        """Store one transition per active env; update when the buffer fills.

        Rows arrive in env-index order from the synchronous collector.
        The observation stored is the *normalized* one the policy saw.
        When the buffer holds several envs' trajectories the updater
        bootstraps each env's tail itself (see
        ``grouped_bootstrap_values``), so no scalar ``last_value`` is
        needed.  Returns the update statistics when an update ran, else
        ``None``.
        """
        norm_obs = self.obs_norm.normalize_frozen(obs)
        norm_next = self.obs_norm(next_obs)
        scaled = self.reward_scaler.scale_batch(rewards, dones, env_ids)
        self.buffer.add_batch(
            env_ids, norm_obs, actions, scaled, norm_next, dones, log_probs, values
        )
        self.total_steps += len(env_ids)
        if not self.buffer.full:
            return None
        if self.buffer.n_envs > 1 or dones[-1]:
            # Terminal, or ignored: a multi-env updater bootstraps per env.
            last_value = 0.0
        else:
            last_value = float(self.critic.value(norm_next)[-1])
        stats = self.updater.update(self.buffer, last_value=last_value)
        self.actor_old.copy_weights_from(self.actor)   # line 22
        self.buffer.clear()                             # line 23
        self.total_updates += 1
        return stats

    def freeze(self) -> None:
        """Switch to evaluation mode (stop normalizer adaptation)."""
        self.obs_norm.freeze()
        self.reward_scaler.freeze()

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        state.update(self.actor.state_dict(prefix="actor/"))
        state.update(self.critic.state_dict(prefix="critic/"))
        for key, val in self.obs_norm.state_dict().items():
            state[f"obs_norm/{key}"] = val
        for key, val in self.reward_scaler.state_dict().items():
            state[f"reward_scaler/{key}"] = val
        state["meta/total_steps"] = np.asarray(self.total_steps)
        state["meta/total_updates"] = np.asarray(self.total_updates)
        state["meta/obs_dim"] = np.asarray(self.config.obs_dim)
        state["meta/act_dim"] = np.asarray(self.config.act_dim)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if int(np.asarray(state["meta/obs_dim"])) != self.config.obs_dim:
            raise ValueError("checkpoint obs_dim does not match agent config")
        if int(np.asarray(state["meta/act_dim"])) != self.config.act_dim:
            raise ValueError("checkpoint act_dim does not match agent config")
        self.actor.load_state_dict(state, prefix="actor/")
        self.actor_old.copy_weights_from(self.actor)
        self.critic.load_state_dict(state, prefix="critic/")
        self.obs_norm.load_state_dict(
            {k.split("/", 1)[1]: v for k, v in state.items() if k.startswith("obs_norm/")}
        )
        self.reward_scaler.load_state_dict(
            {k.split("/", 1)[1]: v for k, v in state.items() if k.startswith("reward_scaler/")}
        )
        self.total_steps = int(np.asarray(state["meta/total_steps"]))
        self.total_updates = int(np.asarray(state["meta/total_updates"]))

    def save(self, path: str) -> None:
        save_npz_state(path, self.state_dict())

    def load(self, path: str) -> None:
        self.load_state_dict(load_npz_state(path))
