"""Vectorized rollout collection (repro.parallel).

The contracts under test:

* Serial and subprocess backends produce **bit-identical** trajectories
  for the same spec, for every worker count;
* a 1-env ``OfflineTrainer`` built from a spec matches the straight-line
  serial Algorithm-1 loop exactly (same RNG/normalizer stream consumption);
* a killed worker surfaces as :class:`WorkerCrashError` within the
  backend timeout instead of hanging;
* checkpoint/resume of a vectorized run reproduces the uninterrupted
  run bit-exactly (per-env RNG streams captured as ``rng/venv{i}``).
"""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.trainer import OfflineTrainer, TrainerConfig
from repro.devices.fleet import FleetConfig
from repro.experiments.presets import TESTBED_PRESET, build_env_spec
from repro.parallel import (
    EnvSpec,
    SerialVecEnv,
    SubprocVecEnv,
    VecRolloutCollector,
    WorkerCrashError,
    make_vec_env,
)
from repro.utils.rng import env_stream
from tests.test_core import assert_same_run, serial_reference


def tiny_preset(n_devices: int = 2, episode_length: int = 6):
    return replace(
        TESTBED_PRESET,
        trace_slots=200,
        episode_length=episode_length,
        n_devices=n_devices,
        fleet=FleetConfig(n_devices=n_devices),
    )


def tiny_spec(seed: int = 0, **kwargs):
    return build_env_spec(tiny_preset(**kwargs), seed=seed)


def rollout(venv, n_steps: int, action_seed: int = 7):
    """Deterministic open-loop rollout; returns stacked (obs, rewards)."""
    rng = np.random.default_rng(action_seed)
    all_obs = [venv.reset()]
    all_rewards = []
    for _ in range(n_steps):
        actions = rng.uniform(-1, 1, (venv.n_envs, venv.act_dim))
        obs, rewards, dones, infos = venv.step(actions)
        all_obs.append(obs)
        all_rewards.append(rewards)
    return np.stack(all_obs), np.stack(all_rewards)


class TestEnvSpec:
    def test_build_reseeds_per_index(self):
        spec = tiny_spec(seed=3)
        e0, e1 = spec.build(0), spec.build(1)
        assert e0.rng.bit_generator.state != e1.rng.bit_generator.state
        assert (
            spec.build(0).rng.bit_generator.state == e0.rng.bit_generator.state
        )

    def test_env_stream_independent_of_layout(self):
        # The stream for index i depends only on (seed, i).
        a = env_stream(5, 2).standard_normal(4)
        b = env_stream(5, 2).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, env_stream(5, 3).standard_normal(4))

    def test_unpicklable_spec_rejected(self):
        # The lambda is the point: validate_picklable must reject it.
        spec = EnvSpec(factory=lambda: None)  # repro: noqa REP007
        with pytest.raises(TypeError, match="picklable"):
            spec.validate_picklable()

    def test_factory_without_reseed_rejected(self):
        spec = EnvSpec(factory=dict)
        with pytest.raises(TypeError, match="reseed"):
            spec.build(0)


class TestBackendEquivalence:
    def test_serial_matches_subproc_all_worker_counts(self):
        """Env i's trajectory is bit-identical for every worker layout."""
        spec = tiny_spec(seed=11)
        with SerialVecEnv(spec, 4) as ref:
            ref_obs, ref_rew = rollout(ref, 5)
            ref_rng = ref.get_rng_states()
        for workers in (1, 2, 3, 4):
            with SubprocVecEnv(spec, 4, workers=workers, timeout=60.0) as venv:
                obs, rew = rollout(venv, 5)
                assert np.array_equal(obs, ref_obs), f"workers={workers}"
                assert np.array_equal(rew, ref_rew), f"workers={workers}"
                assert venv.get_rng_states() == ref_rng, f"workers={workers}"

    def test_make_vec_env_backend_selection(self):
        spec = tiny_spec()
        with make_vec_env(spec, 2, workers=0) as venv:
            assert isinstance(venv, SerialVecEnv)
        with make_vec_env(spec, 2, workers=2) as venv:
            assert isinstance(venv, SubprocVecEnv)

    def test_rng_state_roundtrip(self):
        spec = tiny_spec()
        with SerialVecEnv(spec, 2) as venv:
            venv.reset()
            states = venv.get_rng_states()
            first = venv.reset()
            venv.set_rng_states(states)
            again = venv.reset()
            assert np.array_equal(first, again)

    def test_active_mask_skips_envs(self):
        spec = tiny_spec()
        with SerialVecEnv(spec, 3) as venv:
            venv.reset()
            actions = np.zeros((3, venv.act_dim))
            obs, rewards, dones, infos = venv.step(
                actions, active=np.array([True, False, True])
            )
            assert infos[1] is None and rewards[1] == 0.0
            assert infos[0] is not None and infos[2] is not None


class TestTrainerEquivalence:
    def test_one_env_vectorized_matches_serial(self):
        """A spec-built one-env trainer == the straight-line serial loop."""
        self._check_one_env_matches_serial(workers=0)

    def test_one_env_in_worker_matches_serial(self):
        """The same with the one env in a subprocess worker."""
        self._check_one_env_matches_serial(workers=1)

    @staticmethod
    def _check_one_env_matches_serial(workers):
        spec = tiny_spec(seed=0)

        def config(workers=0):
            return TrainerConfig(
                n_episodes=4, hidden=(8,), buffer_size=16, workers=workers
            )

        h_ref, agent_ref = serial_reference(spec.build(0), config(), rng=0)
        trainer = OfflineTrainer(config=config(workers), rng=0, env_spec=spec)
        assert_same_run(h_ref, agent_ref, trainer.train(), trainer.agent)

    def test_multi_env_worker_count_invariance(self):
        """Training output is identical for serial and subproc backends."""
        spec = tiny_spec(seed=1)

        def run(workers):
            trainer = OfflineTrainer(
                config=TrainerConfig(
                    n_episodes=4, hidden=(8,), buffer_size=16,
                    num_envs=2, workers=workers,
                ),
                rng=0,
                env_spec=spec,
            )
            return trainer.train()

        h0, h2 = run(0), run(2)
        assert np.array_equal(h0.episode_costs, h2.episode_costs)

    def test_vectorized_requires_env_spec(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="env_spec"):
            OfflineTrainer(
                spec.build(0),
                TrainerConfig(n_episodes=2, num_envs=2, buffer_size=16),
            )

    def test_ddpg_vectorization_rejected(self):
        with pytest.raises(ValueError, match="ppo/a2c"):
            TrainerConfig(algorithm="ddpg", num_envs=2).validate()

    def test_a2c_vectorized_trains(self):
        spec = tiny_spec(seed=2)
        trainer = OfflineTrainer(
            config=TrainerConfig(
                n_episodes=2, hidden=(8,), buffer_size=12,
                num_envs=2, algorithm="a2c",
            ),
            rng=0,
            env_spec=spec,
        )
        history = trainer.train()
        assert history.n_episodes == 2


class TestWorkerCrash:
    def test_killed_worker_raises_within_timeout(self):
        spec = tiny_spec()
        venv = SubprocVecEnv(spec, 2, workers=2, timeout=10.0)
        try:
            venv.reset()
            os.kill(venv._procs[0].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerCrashError):
                for _ in range(4):
                    venv.step(np.zeros((2, venv.act_dim)))
            assert time.monotonic() - start < 10.0
        finally:
            venv.close()

    def test_close_is_idempotent(self):
        spec = tiny_spec()
        venv = SubprocVecEnv(spec, 2, workers=1)
        venv.close()
        venv.close()
        assert all(not p.is_alive() for p in venv._procs)

    def test_close_kills_unresponsive_worker(self):
        # A SIGSTOPped worker cannot run its SIGTERM handler; close()
        # must escalate to SIGKILL instead of leaving a zombie behind.
        spec = tiny_spec()
        venv = SubprocVecEnv(spec, 2, workers=1)
        venv.reset()
        os.kill(venv._procs[0].pid, signal.SIGSTOP)
        venv.close()
        assert all(not p.is_alive() for p in venv._procs)


class TestVectorizedCheckpoint:
    def test_resume_matches_uninterrupted(self, tmp_path):
        """Interrupted-at-checkpoint + resume == one continuous run."""
        spec = tiny_spec(seed=0)
        ck = str(tmp_path / "vec.ckpt.npz")

        def config(n_episodes):
            return TrainerConfig(
                n_episodes=n_episodes, hidden=(8,), buffer_size=16,
                num_envs=2, checkpoint_every=4, checkpoint_path=ck,
            )

        full = OfflineTrainer(config=config(8), rng=0, env_spec=spec)
        h_full = full.train()

        OfflineTrainer(config=config(4), rng=0, env_spec=spec).train()
        resumed = OfflineTrainer(config=config(8), rng=0, env_spec=spec)
        assert resumed.resume(ck) == 4
        h_resumed = resumed.train()

        assert np.array_equal(h_full.episode_costs, h_resumed.episode_costs)
        s_full = full.agent.state_dict()
        s_res = resumed.agent.state_dict()
        for key in s_full:
            assert np.array_equal(
                np.asarray(s_full[key]), np.asarray(s_res[key])
            ), key


class TestCollector:
    def test_episode_batch_summaries(self):
        from repro.rl.agent import AgentConfig, PPOAgent

        spec = tiny_spec(episode_length=5)
        with SerialVecEnv(spec, 3) as venv:
            agent = PPOAgent(
                AgentConfig(
                    obs_dim=venv.obs_dim, act_dim=venv.act_dim,
                    hidden=(8,), buffer_size=32, n_envs=3,
                ),
                rng=0,
            )
            summaries = VecRolloutCollector(venv, agent).run_episode_batch()
        assert len(summaries) == 3
        assert all(s["episode_len"] == 5 for s in summaries)
        assert agent.total_steps == 15
