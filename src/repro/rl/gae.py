"""Advantage and return estimation.

``compute_gae`` implements generalized advantage estimation (Schulman et
al., 2016), the standard companion to PPO.  ``td_targets`` implements the
one-step target the paper's Algorithm 1 (line 20) writes for the critic:
``r_j + gamma * V(s_{j+1})``.  Both are exposed so the trainer can be
configured either way; the ablation bench compares them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _validate(rewards, values, dones) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    dones = np.asarray(dones, dtype=bool).ravel()
    if not (rewards.shape == values.shape == dones.shape):
        raise ValueError("rewards, values and dones must share shape")
    return rewards, values, dones


def compute_gae(
    rewards,
    values,
    dones,
    last_value: float,
    gamma: float = 0.99,
    lam: float = 0.95,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(advantages, returns)`` via GAE(gamma, lam).

    ``last_value`` bootstraps the value of the state following the final
    stored transition (zero when that state is terminal).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    rewards, values, dones = _validate(rewards, values, dones)
    n = rewards.size
    # The reverse-scan recurrence cannot be vectorized without
    # reassociating the IEEE-754 operation order, so run it over native
    # Python floats instead of numpy scalar indexing: same binary64
    # arithmetic bit-for-bit (see compute_gae_reference), several times
    # faster per element at buffer sizes of hundreds.
    r = rewards.tolist()
    v = values.tolist()
    d = dones.tolist()
    advantages = np.empty(n, dtype=np.float64)
    gae = 0.0
    next_value = float(last_value)
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if d[t] else 1.0
        delta = r[t] + gamma * next_value * nonterminal - v[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
        next_value = v[t]
    returns = advantages + values
    return advantages, returns


def compute_gae_reference(
    rewards,
    values,
    dones,
    last_value: float,
    gamma: float = 0.99,
    lam: float = 0.95,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original numpy-scalar GAE loop (reference semantics).

    Kept as the ground truth :func:`compute_gae` must match bit-for-bit
    (``tests/test_rl_gae.py``) and as the profiling harness's speedup
    baseline (``repro profile rollout``).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    rewards, values, dones = _validate(rewards, values, dones)
    n = rewards.size
    advantages = np.zeros(n, dtype=np.float64)
    gae = 0.0
    next_value = float(last_value)
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
        next_value = values[t]
    returns = advantages + values
    return advantages, returns


def compute_gae_grouped(
    rewards,
    values,
    dones,
    env_ids,
    last_values,
    gamma: float = 0.99,
    lam: float = 0.95,
) -> Tuple[np.ndarray, np.ndarray]:
    """GAE over a buffer interleaving several envs' trajectories.

    ``env_ids`` names each transition's source env; rows are assumed
    time-ordered within each env (a synchronous vectorized collector
    guarantees this).  The recursion runs independently per env so
    bootstrapping never leaks across env boundaries.  ``last_values``
    maps env id -> bootstrap value for that env's final stored
    transition (ignored where that transition is terminal).
    """
    rewards, values, dones = _validate(rewards, values, dones)
    env_ids = np.asarray(env_ids, dtype=np.intp).ravel()
    if env_ids.shape != rewards.shape:
        raise ValueError("env_ids must share shape with rewards")
    advantages = np.zeros_like(rewards)
    returns = np.zeros_like(rewards)
    if rewards.size:
        # One stable argsort groups the rows per env in a single pass
        # (vs. one full boolean scan per env): stability preserves each
        # env's time order, and sorted group order matches the
        # np.unique iteration this replaced.
        order = np.argsort(env_ids, kind="stable")
        sorted_ids = env_ids[order]
        bounds = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        for idx in np.split(order, bounds):
            e = int(env_ids[idx[0]])
            adv, ret = compute_gae(
                rewards[idx], values[idx], dones[idx],
                float(last_values.get(e, 0.0)), gamma, lam,
            )
            advantages[idx] = adv
            returns[idx] = ret
    return advantages, returns


def td_targets(
    rewards, next_values, dones, gamma: float = 0.99
) -> np.ndarray:
    """One-step TD targets ``r_j + gamma V(s_{j+1})`` (Algorithm 1 line 20)."""
    rewards = np.asarray(rewards, dtype=np.float64).ravel()
    next_values = np.asarray(next_values, dtype=np.float64).ravel()
    dones = np.asarray(dones, dtype=bool).ravel()
    if not (rewards.shape == next_values.shape == dones.shape):
        raise ValueError("inputs must share shape")
    return rewards + gamma * np.where(dones, 0.0, next_values)


def normalize_advantages(advantages: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Batch-standardize advantages (the usual PPO stabilizer)."""
    advantages = np.asarray(advantages, dtype=np.float64)
    std = advantages.std()
    if std < eps:
        return advantages - advantages.mean()
    return (advantages - advantages.mean()) / (std + eps)
