"""Proximal Policy Optimization (clip variant) with manual gradients.

The update implements the standard PPO-clip surrogate

    L = -E[ min(rho_t A_t, clip(rho_t, 1-eps, 1+eps) A_t) ]
        - c_ent * H(pi)  +  c_v * (V(s) - R)^2

where ``rho_t = pi(a|s)/pi_old(a|s)``.  Gradients flow analytically:

* d(surrogate)/d(logp) = -A * rho on the active (unclipped) branch, else 0;
* d(logp)/d(mean), d(logp)/d(log_std) come from
  :meth:`repro.nn.distributions.DiagGaussian.log_prob_grads`;
* the mean gradient backpropagates through the actor MLP.

``tests/test_rl_ppo.py`` gradient-checks this against finite differences
and verifies the clipping semantics branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.buffer import RolloutBuffer
from repro.rl.gae import (
    compute_gae,
    compute_gae_grouped,
    normalize_advantages,
    td_targets,
)
from repro.rl.policy import Critic, GaussianActor
from repro.utils.rng import SeedLike, as_generator


@dataclass
class PPOConfig:
    """Hyperparameters of the PPO update."""

    clip_epsilon: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 10               # M of Algorithm 1
    minibatch_size: int = 64
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    entropy_coef: float = 1e-3
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True
    target_kl: Optional[float] = 0.05
    advantage_mode: str = "gae"    # "gae" | "td" (paper's line-20 one-step form)
    #: Linearly decay learning rates to this fraction of their initial
    #: value over the training run (1.0 disables decay).  The trainer
    #: drives the decay by calling :meth:`PPOUpdater.set_progress`.
    lr_decay_to: float = 1.0

    def validate(self) -> "PPOConfig":
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be positive")
        if self.epochs <= 0 or self.minibatch_size <= 0:
            raise ValueError("epochs and minibatch_size must be positive")
        if self.advantage_mode not in ("gae", "td"):
            raise ValueError("advantage_mode must be 'gae' or 'td'")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 < self.lr_decay_to <= 1.0:
            raise ValueError("lr_decay_to must be in (0, 1]")
        return self


def _accumulate_log_std_grad(param, grad_vec: np.ndarray) -> None:
    """Accumulate a per-dimension log_std gradient into the parameter.

    Ordinary actors hold one log_std per action dimension; the
    permutation-shared actor (repro.rl.shared_policy) ties them to a
    single scalar, whose gradient is the sum over dimensions.
    """
    grad_vec = np.asarray(grad_vec, dtype=np.float64).ravel()
    if param.data.shape == grad_vec.shape:
        param.grad += grad_vec
    elif param.data.size == 1:
        param.grad += grad_vec.sum()
    else:  # pragma: no cover - defensive
        raise ValueError(
            f"log_std grad shape {grad_vec.shape} does not fit parameter "
            f"{param.data.shape}"
        )


def grouped_bootstrap_values(buffer: RolloutBuffer, critic: Critic) -> Dict[int, float]:
    """Per-env GAE bootstrap values for a vectorized buffer.

    For each env present in the buffer, the bootstrap is ``V(s')`` of its
    final stored transition (zero when that transition is terminal) —
    exactly the ``last_value`` a single-env buffer hands to
    :meth:`PPOUpdater.update`, computed per env.
    """
    n = len(buffer)
    env_ids = buffer.env_ids[:n]
    dones = buffer.dones[:n]
    next_states = buffer.next_states[:n]
    out: Dict[int, float] = {}
    for e in np.unique(env_ids):
        last = int(np.flatnonzero(env_ids == e)[-1])
        if dones[last]:
            out[int(e)] = 0.0
        else:
            out[int(e)] = float(critic.value(next_states[last])[0])
    return out


@dataclass
class UpdateStats:
    """Diagnostics of one buffer-worth of PPO updates."""

    policy_loss: float = 0.0
    value_loss: float = 0.0
    entropy: float = 0.0
    approx_kl: float = 0.0
    clip_fraction: float = 0.0
    grad_norm_actor: float = 0.0
    grad_norm_critic: float = 0.0
    n_minibatches: int = 0
    early_stopped: bool = False
    #: True when the update was refused (non-finite batch) or rolled back
    #: (parameters diverged mid-update); the pre-update state is intact.
    skipped: bool = False

    @property
    def total_loss(self) -> float:
        """Combined scalar loss (what Fig. 6(a) tracks)."""
        return self.policy_loss + self.value_loss


class PPOUpdater:
    """Applies PPO-clip updates to an actor/critic pair from a buffer."""

    def __init__(
        self,
        actor: GaussianActor,
        critic: Critic,
        config: Optional[PPOConfig] = None,
        rng: SeedLike = None,
    ):
        self.actor = actor
        self.critic = critic
        self.config = (config or PPOConfig()).validate()
        self.rng = as_generator(rng)
        self.actor_opt = Adam(actor.parameters(), lr=self.config.actor_lr)
        self.critic_opt = Adam(critic.parameters(), lr=self.config.critic_lr)
        from repro.nn.schedules import LinearSchedule

        self._lr_schedule = LinearSchedule(1.0, self.config.lr_decay_to)

    def set_progress(self, progress: float) -> None:
        """Apply the linear LR decay at training progress in [0, 1]."""
        scale = self._lr_schedule(progress)
        self.actor_opt.lr = self.config.actor_lr * scale
        self.critic_opt.lr = self.config.critic_lr * scale

    # -- single-minibatch losses -----------------------------------------
    def _policy_minibatch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        advantages: np.ndarray,
    ) -> Dict[str, float]:
        cfg = self.config
        dist = self.actor.distribution(states)
        log_probs = dist.log_prob(actions)
        ratio = np.exp(np.clip(log_probs - old_log_probs, -30.0, 30.0))
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        surr1 = ratio * advantages
        surr2 = clipped_ratio * advantages
        objective = np.minimum(surr1, surr2)
        n = states.shape[0]

        # Gradient of -mean(objective) w.r.t. log_probs.  The gradient is
        # non-zero only where the unclipped branch is active: either
        # surr1 <= surr2 (min selects it) or the clip is not binding.
        unclipped_active = (surr1 <= surr2) | (
            (ratio > 1.0 - cfg.clip_epsilon) & (ratio < 1.0 + cfg.clip_epsilon)
        )
        d_obj_d_logp = np.where(unclipped_active, advantages * ratio, 0.0)
        d_loss_d_logp = -d_obj_d_logp / n

        d_mean, d_log_std_rows = dist.log_prob_grads(actions)
        grad_mean = d_loss_d_logp[:, None] * d_mean
        grad_log_std = (d_loss_d_logp[:, None] * d_log_std_rows).sum(axis=0)
        # Entropy bonus: -c_ent * H; dH/dlog_std = 1 per dim.
        grad_log_std -= cfg.entropy_coef * dist.entropy_grad_log_std()

        self.actor.zero_grad()
        self.actor.backward(grad_mean)
        _accumulate_log_std_grad(self.actor.log_std, grad_log_std)
        gnorm = clip_grad_norm(self.actor.parameters(), cfg.max_grad_norm)
        self.actor_opt.step()
        self.actor.clamp_log_std()

        entropy = dist.entropy()
        policy_loss = float(-objective.mean() - cfg.entropy_coef * entropy)
        approx_kl = float(np.mean(old_log_probs - log_probs))
        clip_frac = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon))
        return {
            "policy_loss": policy_loss,
            "entropy": entropy,
            "approx_kl": approx_kl,
            "clip_fraction": clip_frac,
            "grad_norm": gnorm,
        }

    def _value_minibatch(self, states: np.ndarray, targets: np.ndarray) -> Dict[str, float]:
        pred = self.critic.forward(states)
        loss, grad = mse_loss(pred, targets[:, None])
        self.critic.zero_grad()
        self.critic.backward(grad)
        gnorm = clip_grad_norm(self.critic.parameters(), self.config.max_grad_norm)
        self.critic_opt.step()
        return {"value_loss": loss, "grad_norm": gnorm}

    # -- full update over the buffer --------------------------------------
    def update(self, buffer: RolloutBuffer, last_value: float = 0.0) -> UpdateStats:
        """Run ``M`` epochs of minibatch PPO over the buffer contents.

        The update is transactional: a non-finite batch is refused, and a
        non-finite post-update parameter state is rolled back to the
        pre-update snapshot (networks *and* Adam moments).  Either way the
        returned stats carry ``skipped=True`` and the policy is unchanged.
        """
        if len(buffer) == 0:
            raise ValueError("cannot update from an empty buffer")
        san = _sanitizer.ACTIVE
        if san is not None:
            # nn checks during this update report its ordinal.
            san.note_update()
        from repro.rl.guards import (
            arrays_finite,
            params_finite,
            restore_snapshot,
            take_snapshot,
        )

        if not arrays_finite(buffer.data(), np.asarray(last_value)):
            return UpdateStats(skipped=True)
        modules = [self.actor, self.critic]
        opts = [self.actor_opt, self.critic_opt]
        snapshot = take_snapshot(modules, opts)
        stats = self._update_impl(buffer, last_value)
        if not params_finite(modules):
            restore_snapshot(modules, opts, snapshot)
            return UpdateStats(skipped=True)
        return stats

    def _update_impl(self, buffer: RolloutBuffer, last_value: float) -> UpdateStats:
        cfg = self.config
        data = buffer.data()
        states = data["states"]
        actions = data["actions"]

        if cfg.advantage_mode == "gae":
            if getattr(buffer, "n_envs", 1) > 1:
                # Vectorized buffer: the recursion must not cross env
                # boundaries; bootstrap each env's tail separately.
                advantages, returns = compute_gae_grouped(
                    data["rewards"], data["values"], data["dones"],
                    buffer.env_ids[: len(buffer)],
                    grouped_bootstrap_values(buffer, self.critic),
                    cfg.gamma, cfg.gae_lambda,
                )
            else:
                advantages, returns = compute_gae(
                    data["rewards"], data["values"], data["dones"],
                    last_value, cfg.gamma, cfg.gae_lambda,
                )
        else:
            # Paper Algorithm 1 line 20: targets r + gamma * V(s');
            # advantage is the one-step TD error.  One-step targets are
            # purely elementwise, so env interleaving needs no special
            # handling here.
            next_values = self.critic.value(data["next_states"])
            returns = td_targets(data["rewards"], next_values, data["dones"], cfg.gamma)
            advantages = returns - data["values"]

        if cfg.normalize_advantages:
            advantages = normalize_advantages(advantages)

        stats = UpdateStats()
        policy_losses: List[float] = []
        value_losses: List[float] = []
        for epoch in range(cfg.epochs):
            epoch_kls = []
            for idx in buffer.minibatch_indices(cfg.minibatch_size, rng=self.rng):
                p = self._policy_minibatch(
                    states[idx], actions[idx], data["log_probs"][idx], advantages[idx]
                )
                v = self._value_minibatch(states[idx], returns[idx])
                policy_losses.append(p["policy_loss"])
                value_losses.append(v["value_loss"])
                epoch_kls.append(p["approx_kl"])
                stats.entropy = p["entropy"]
                stats.clip_fraction = p["clip_fraction"]
                stats.grad_norm_actor = p["grad_norm"]
                stats.grad_norm_critic = v["grad_norm"]
                stats.n_minibatches += 1
            stats.approx_kl = float(np.mean(epoch_kls))
            if cfg.target_kl is not None and stats.approx_kl > 1.5 * cfg.target_kl:
                stats.early_stopped = True
                break
        stats.policy_loss = float(np.mean(policy_losses))
        stats.value_loss = float(np.mean(value_losses))
        return stats
