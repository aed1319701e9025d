"""Tests for online adaptation and observation-noise robustness."""

import copy
import types

import numpy as np
import pytest
from dataclasses import replace

from repro.core.drl_allocator import DRLAllocator
from repro.core.online import OnlineAdaptingAllocator
from repro.core.trainer import OfflineTrainer, TrainerConfig
from repro.devices.fleet import FleetConfig
from repro.env.wrappers import NoisyObservationWrapper
from repro.experiments.presets import TESTBED_PRESET, build_env, build_system
from repro.rl.ppo import PPOConfig

SMALL = replace(
    TESTBED_PRESET, trace_slots=400, episode_length=16,
    fleet=FleetConfig(n_devices=3),
)


@pytest.fixture(scope="module")
def trained_agent():
    env = build_env(SMALL, seed=0)
    trainer = OfflineTrainer(
        env,
        TrainerConfig(n_episodes=80, hidden=(16, 16), buffer_size=128),
        rng=0,
    )
    trainer.train()
    return trainer.agent


class TestOnlineAdaptingAllocator:
    def test_allocates_valid_frequencies(self, trained_agent):
        system = build_system(SMALL, seed=0)
        system.reset(50.0)
        alloc = OnlineAdaptingAllocator(trained_agent, adapt=True)
        alloc.reset(system)
        for _ in range(10):
            freqs = alloc.allocate(system)
            assert np.all(freqs > 0)
            assert np.all(freqs <= system.fleet.max_frequencies + 1e-12)
            system.step(freqs)

    def test_adaptation_feeds_transitions(self, trained_agent):
        system = build_system(SMALL, seed=0)
        system.reset(50.0)
        alloc = OnlineAdaptingAllocator(trained_agent, adapt=True)
        alloc.reset(system)
        steps_before = trained_agent.total_steps
        for _ in range(6):
            system.step(alloc.allocate(system))
        assert trained_agent.total_steps > steps_before

    def test_frozen_mode_does_not_learn(self, trained_agent):
        system = build_system(SMALL, seed=0)
        system.reset(50.0)
        alloc = OnlineAdaptingAllocator(trained_agent, adapt=False)
        alloc.reset(system)
        steps_before = trained_agent.total_steps
        for _ in range(6):
            system.step(alloc.allocate(system))
        assert trained_agent.total_steps == steps_before

    def test_frozen_mode_matches_drl_allocator(self, trained_agent):
        """With adapt=False the action equals the deterministic policy."""
        system = build_system(SMALL, seed=0)
        system.reset(50.0)
        online = OnlineAdaptingAllocator(trained_agent, adapt=False)
        frozen = DRLAllocator(trained_agent)
        online.reset(system)
        frozen.reset(system)
        assert np.allclose(online.allocate(system), frozen.allocate(system))


def scalar_act(agent, obs):
    """``PPOAgent.act`` as a scalar body: one 1-D observation."""
    norm_obs = agent.obs_norm(obs)
    action, log_prob = agent.actor_old.act(norm_obs, rng=agent._sample_rng)
    return action, log_prob, float(agent.critic.value(norm_obs)[0])


def scalar_observe(agent, obs, action, reward, next_obs, done, log_prob, value):
    """``PPOAgent.observe`` as a scalar body: env 0's float return chain."""
    norm_obs = agent.obs_norm.normalize_frozen(obs)
    norm_next = agent.obs_norm(next_obs)
    scaler = agent.reward_scaler
    scaled = float(reward)
    if scaler.enabled:
        if not scaler.frozen:
            ret = scaler.gamma * float(scaler._ret[0]) + float(reward)
            scaler.rms.update(np.asarray([ret]))
            scaler._ret[0] = 0.0 if done else ret
        scaled = float(reward / (np.sqrt(scaler.rms.var) + 1e-8))
    agent.buffer.add(norm_obs, action, scaled, norm_next, done, log_prob, value)
    agent.total_steps += 1
    if not agent.buffer.full:
        return None
    last_value = 0.0 if done else float(agent.critic.value(norm_next)[0])
    stats = agent.updater.update(agent.buffer, last_value=last_value)
    agent.actor_old.copy_weights_from(agent.actor)
    agent.buffer.clear()
    agent.total_updates += 1
    return stats


class TestOneRowAgentCalls:
    def test_adapting_frequencies_match_scalar_bodies(self, trained_agent):
        """``act``/``observe`` as one-row batch calls leave the adapting
        allocator's frequencies, and the agent it trains, unchanged."""

        def run(agent):
            system = build_system(SMALL, seed=0)
            system.reset(50.0)
            alloc = OnlineAdaptingAllocator(agent, adapt=True)
            alloc.reset(system)
            freqs = []
            for _ in range(150):  # crosses one update (|D| = 128)
                freqs.append(alloc.allocate(system))
                system.step(freqs[-1])
            return np.stack(freqs)

        reference = copy.deepcopy(trained_agent)
        reference.act = types.MethodType(scalar_act, reference)
        reference.observe = types.MethodType(scalar_observe, reference)
        agent = copy.deepcopy(trained_agent)
        updates = agent.total_updates
        assert np.array_equal(run(reference), run(agent))
        assert agent.total_updates == updates + 1
        ref_state, state = reference.state_dict(), agent.state_dict()
        assert float(state["reward_scaler/ret"]) != 0.0
        for key in ref_state:
            assert np.array_equal(ref_state[key], state[key]), key


class TestNoisyObservations:
    def test_sigma_zero_is_identity(self):
        env = build_env(SMALL, seed=0)
        noisy = NoisyObservationWrapper(env, sigma=0.0, rng=0)
        obs = noisy.reset(start_time=40.0)
        assert np.allclose(obs, env.system.bandwidth_state().ravel())

    def test_noise_corrupts_observations(self):
        env = build_env(SMALL, seed=0)
        noisy = NoisyObservationWrapper(env, sigma=0.3, rng=0)
        obs = noisy.reset(start_time=40.0)
        clean = env.system.bandwidth_state().ravel()
        assert not np.allclose(obs, clean)
        assert np.all(obs > 0)  # multiplicative noise preserves positivity

    def test_step_passthrough(self):
        env = build_env(SMALL, seed=0)
        noisy = NoisyObservationWrapper(env, sigma=0.2, rng=0)
        noisy.reset(start_time=40.0)
        result = noisy.step(np.zeros(noisy.act_dim))
        assert result.reward < 0
        assert result.observation.shape == (noisy.obs_dim,)

    def test_invalid_sigma_raises(self):
        env = build_env(SMALL, seed=0)
        with pytest.raises(ValueError):
            NoisyObservationWrapper(env, sigma=-0.1)

    def test_trained_policy_tolerates_moderate_noise(self, trained_agent):
        """Deploying with 10% measurement noise must not collapse the
        policy: cost stays within 15% of the clean deployment."""
        rng = np.random.default_rng(7)

        def run(sigma):
            system = build_system(SMALL, seed=0)
            system.reset(60.0)
            alloc = DRLAllocator(trained_agent)
            alloc.reset(system)
            costs = []
            for _ in range(60):
                obs = system.bandwidth_state().ravel()
                if sigma > 0:
                    obs = obs * np.exp(rng.standard_normal(obs.shape) * sigma)
                action = trained_agent.policy_action(obs)
                freqs = alloc._mapper.to_frequencies(action)
                costs.append(system.step(freqs).cost)
            return float(np.mean(costs))

        clean = run(0.0)
        noisy = run(0.1)
        assert noisy <= clean * 1.15

    def test_training_under_noise_works(self):
        """PPO can train end-to-end through the noisy wrapper."""
        env = NoisyObservationWrapper(build_env(SMALL, seed=0), sigma=0.15, rng=3)
        trainer = OfflineTrainer(
            env,
            TrainerConfig(
                n_episodes=6, hidden=(8,), buffer_size=32,
                ppo=PPOConfig(epochs=1, minibatch_size=16),
            ),
            rng=0,
        )
        history = trainer.train()
        assert history.n_episodes == 6
        assert all(np.isfinite(c) for c in history.episode_costs)
