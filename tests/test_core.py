"""Tests for repro.core — Algorithm 1 trainer and the DRL allocator."""

import numpy as np
import pytest

from repro.core.callbacks import TrainingHistory
from repro.core.drl_allocator import DRLAllocator
from repro.core.trainer import OfflineTrainer, TrainerConfig
from repro.devices.device import DeviceParams, MobileDevice
from repro.devices.fleet import DeviceFleet
from repro.env.fl_env import EnvConfig, FLSchedulingEnv
from repro.rl.ppo import PPOConfig, UpdateStats
from repro.sim.cost import CostModel
from repro.sim.system import FLSystem, SystemConfig
from repro.traces.base import BandwidthTrace
from repro.traces.synthetic import lte_walking_trace
from repro.utils.serialization import load_npz_state, save_npz_state


def small_env(seed=0, episode_length=8, n=2):
    devices = []
    for i in range(n):
        p = DeviceParams(
            data_mbit=500.0, cycles_per_mbit=0.02, max_frequency_ghz=1.5,
            alpha=0.05, e_tx=0.01,
        )
        trace = lte_walking_trace(n_slots=400, rng=seed + i)
        devices.append(MobileDevice(p, trace, device_id=i))
    system = FLSystem(
        DeviceFleet(devices),
        SystemConfig(model_size_mbit=60.0, history_slots=3, cost=CostModel(lam=1.0)),
    )
    return FLSchedulingEnv(system, EnvConfig(episode_length=episode_length), rng=seed)


def small_trainer_config(n_episodes=4, **kwargs):
    return TrainerConfig(
        n_episodes=n_episodes,
        hidden=(8,),
        buffer_size=16,
        ppo=PPOConfig(epochs=1, minibatch_size=8),
        **kwargs,
    )


def serial_reference(env, config, rng=0):
    """Algorithm 1 one transition at a time, as a straight-line loop.

    ``env.reset`` / ``agent.act`` / ``env.step`` / ``agent.observe`` per
    step, the update-progress schedule per episode and the final freeze:
    the semantics ``OfflineTrainer.train`` must reproduce through the
    rollout collector.  Returns ``(history, agent)``.
    """
    agent = OfflineTrainer(env, config, rng=rng).agent
    history = TrainingHistory()
    for episode in range(config.n_episodes):
        agent.updater.set_progress(episode / max(config.n_episodes - 1, 1))
        obs = env.reset()
        rows, done = [], False
        while not done:
            action, log_prob, value = agent.act(obs)
            step = env.step(action)
            stats = agent.observe(
                obs, action, step.reward, step.observation, step.done,
                log_prob, value,
            )
            if stats is not None:
                history.record_update(stats)
            info = step.info
            rows.append((info["cost"], step.reward, info["iteration_time_s"],
                         info["total_energy"]))
            obs, done = step.observation, step.done
        history.record_episode(*(float(np.mean(col)) for col in zip(*rows)))
    agent.freeze()
    return history, agent


def assert_same_run(h_ref, agent_ref, h, agent):
    """Histories and agent state dicts equal bit for bit."""
    ref, got = h_ref.as_dict(), h.as_dict()
    assert ref.keys() == got.keys()
    for key in ref:
        assert np.array_equal(ref[key], got[key]), key
    s_ref, s_got = agent_ref.state_dict(), agent.state_dict()
    assert s_ref.keys() == s_got.keys()
    for key in s_ref:
        a, b = np.asarray(s_ref[key]), np.asarray(s_got[key])
        assert a.shape == b.shape and np.array_equal(a, b), key


class TestTrainingHistory:
    def test_records(self):
        h = TrainingHistory()
        h.record_episode(5.0, -5.0, 4.0, 1.0)
        stats = UpdateStats(policy_loss=0.1, value_loss=0.2)
        h.record_update(stats)
        assert h.n_episodes == 1
        assert h.n_updates == 1
        assert h.update_total_losses[0] == pytest.approx(0.3)

    def test_smoothed_costs(self):
        h = TrainingHistory()
        for c in [10, 8, 6, 4, 2]:
            h.record_episode(c, -c, 1, 1)
        sm = h.smoothed_costs(window=2)
        assert np.allclose(sm, [9, 7, 5, 3])

    def test_converged_requires_history(self):
        h = TrainingHistory()
        for _ in range(5):
            h.record_episode(5, -5, 1, 1)
        assert not h.converged(window=20)

    def test_converged_on_flat_costs(self):
        h = TrainingHistory()
        for _ in range(100):
            h.record_episode(5.0, -5.0, 1, 1)
        assert h.converged(window=20)

    def test_improvement(self):
        h = TrainingHistory()
        for c in [10.0] * 10 + [5.0] * 10:
            h.record_episode(c, -c, 1, 1)
        assert h.improvement() == pytest.approx(0.5)

    def test_improvement_needs_data(self):
        h = TrainingHistory()
        with pytest.raises(ValueError):
            h.improvement()

    def test_as_dict_keys(self):
        h = TrainingHistory()
        h.record_episode(1, -1, 1, 1)
        d = h.as_dict()
        assert "episode_costs" in d and d["episode_costs"].shape == (1,)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(n_episodes=0).validate()
        with pytest.raises(ValueError):
            TrainerConfig(buffer_size=0).validate()


class TestSingleLoop:
    """``train`` (the rollout collector) == the straight-line reference."""

    @pytest.mark.parametrize(
        "kwargs, n_episodes",
        [
            ({}, 6),
            ({"algorithm": "a2c"}, 6),
            # DDPG updates only after 256 warm-up steps (32 episodes).
            ({"algorithm": "ddpg"}, 40),
            ({"policy": "shared"}, 6),
        ],
        ids=["ppo", "a2c", "ddpg", "shared"],
    )
    def test_train_matches_serial_reference(self, kwargs, n_episodes):
        config = small_trainer_config(n_episodes=n_episodes, **kwargs)
        h_ref, agent_ref = serial_reference(small_env(), config, rng=0)
        trainer = OfflineTrainer(
            small_env(), small_trainer_config(n_episodes=n_episodes, **kwargs), rng=0
        )
        history = trainer.train()
        assert history.n_updates > 0
        assert_same_run(h_ref, agent_ref, history, trainer.agent)

    def test_pre_change_checkpoint_resumes_bit_identically(self, tmp_path):
        """A checkpoint in the older single-env layout — a scalar
        ``agent/reward_scaler/ret`` and no ``rng/venv0`` — resumes and
        trains exactly like the uninterrupted run."""
        path = str(tmp_path / "t.npz.ckpt")

        def make():
            config = small_trainer_config(n_episodes=6, checkpoint_path=path)
            return OfflineTrainer(small_env(), config, rng=0)

        full = make()
        h_full = full.train()
        first = make()
        first.train(stop=lambda: first._episode >= 3)
        assert first.drained
        state = load_npz_state(path)
        legacy = {k: v for k, v in state.items() if not k.startswith("rng/venv")}
        assert len(legacy) < len(state)
        assert np.asarray(legacy["agent/reward_scaler/ret"]).shape == ()
        assert len(legacy["buffer/states"]) and int(legacy["buffer/size"]) > 0
        save_npz_state(path, legacy)
        resumed = make()
        assert resumed.resume(path) == 3
        assert_same_run(h_full, full.agent, resumed.train(), resumed.agent)

    def test_given_env_is_env_zero(self):
        """The trainer steps its own env object, not a reseeded copy."""
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(n_episodes=1), rng=0)
        before = env.rng.bit_generator.state
        trainer.train()
        assert trainer.env is env
        assert env.rng.bit_generator.state != before


class TestOfflineTrainer:
    def test_episode_summary(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(n_episodes=1), rng=0)
        seen = []
        trainer.train(progress_callback=lambda ep, s: seen.append(s))
        (summary,) = seen
        assert summary["episode_len"] == 8
        assert summary["avg_cost"] > 0
        assert summary["avg_reward"] == pytest.approx(-summary["avg_cost"], rel=1e-9)

    def test_train_records_history(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(n_episodes=4), rng=0)
        history = trainer.train()
        assert history.n_episodes == 4
        # 4 episodes * 8 steps = 32 steps, buffer 16 -> 2 updates
        assert history.n_updates == 2

    def test_agent_frozen_after_train(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        assert trainer.agent.obs_norm.frozen

    def test_progress_callback_called(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(n_episodes=3), rng=0)
        seen = []
        trainer.train(progress_callback=lambda ep, s: seen.append(ep))
        assert seen == [0, 1, 2]

    def test_early_stop(self):
        env = small_env()
        cfg = small_trainer_config(n_episodes=200)
        cfg.early_stop_window = 5
        cfg.early_stop_rel_tol = 10.0  # absurdly lax -> stop asap
        trainer = OfflineTrainer(env, cfg, rng=0)
        history = trainer.train()
        assert history.n_episodes < 200

    def test_save_agent(self, tmp_path):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        path = str(tmp_path / "agent.npz")
        trainer.save_agent(path)
        import os

        assert os.path.exists(path)

    def test_training_reduces_cost_on_easy_env(self):
        """Sanity: a few hundred episodes of PPO must beat the initial
        random-ish policy on the scheduling environment."""
        env = small_env(episode_length=16)
        cfg = TrainerConfig(
            n_episodes=120,
            hidden=(16, 16),
            buffer_size=128,
        )
        trainer = OfflineTrainer(env, cfg, rng=0)
        history = trainer.train()
        first = np.mean(history.episode_costs[:15])
        last = np.mean(history.episode_costs[-15:])
        assert last < first


class TestDRLAllocator:
    def test_allocate_bounds(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        alloc = DRLAllocator(trainer.agent)
        system = env.system
        system.reset(30.0)
        alloc.reset(system)
        freqs = alloc.allocate(system)
        assert freqs.shape == (system.n_devices,)
        assert np.all(freqs > 0)
        assert np.all(freqs <= system.fleet.max_frequencies + 1e-12)

    def test_allocate_without_reset(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        alloc = DRLAllocator(trainer.agent)
        env.system.reset(30.0)
        assert alloc.allocate(env.system).shape == (2,)

    def test_dim_mismatch_raises(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        alloc = DRLAllocator(trainer.agent)
        other_env = small_env(n=2)
        other_env.system.config.history_slots = 7  # changes obs dim
        other_env.system.reset(30.0)
        with pytest.raises(ValueError):
            alloc.allocate(other_env.system)

    def test_checkpoint_roundtrip(self, tmp_path):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        path = str(tmp_path / "agent.npz")
        trainer.save_agent(path)

        alloc = DRLAllocator.from_checkpoint(path, hidden=(8,))
        system = env.system
        system.reset(30.0)
        direct = DRLAllocator(trainer.agent)
        direct.reset(system)
        alloc.reset(system)
        assert np.allclose(direct.allocate(system), alloc.allocate(system))

    def test_deterministic(self):
        env = small_env()
        trainer = OfflineTrainer(env, small_trainer_config(), rng=0)
        trainer.train()
        alloc = DRLAllocator(trainer.agent)
        system = env.system
        system.reset(30.0)
        alloc.reset(system)
        f1 = alloc.allocate(system)
        f2 = alloc.allocate(system)
        assert np.allclose(f1, f2)
