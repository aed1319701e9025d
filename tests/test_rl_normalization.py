"""Tests for repro.rl.normalization."""

import numpy as np
import pytest

from repro.rl.normalization import ObservationNormalizer, RewardScaler


class TestObservationNormalizer:
    def test_whitens_stream(self):
        rng = np.random.default_rng(0)
        norm = ObservationNormalizer(obs_dim=3)
        outs = [norm(rng.standard_normal(3) * 5 + 10) for _ in range(500)]
        tail = np.stack(outs[-100:])
        assert np.all(np.abs(tail.mean(axis=0)) < 0.5)
        assert np.all(np.abs(tail.std(axis=0) - 1.0) < 0.5)

    def test_disabled_passthrough(self):
        norm = ObservationNormalizer(obs_dim=2, enabled=False)
        x = np.array([100.0, -100.0])
        assert np.allclose(norm(x), x)

    def test_freeze_stops_updates(self):
        norm = ObservationNormalizer(obs_dim=1)
        norm(np.array([1.0]))
        norm.freeze()
        mean_before = norm.rms.mean.copy()
        norm(np.array([100.0]))
        assert np.allclose(norm.rms.mean, mean_before)

    def test_clipping(self):
        norm = ObservationNormalizer(obs_dim=1, clip=2.0)
        for _ in range(50):
            norm(np.array([0.0]))
        z = norm(np.array([1e12]))
        assert abs(z[0]) <= 2.0

    def test_state_roundtrip(self):
        norm = ObservationNormalizer(obs_dim=2)
        for i in range(20):
            norm(np.array([i, -i], dtype=float))
        other = ObservationNormalizer(obs_dim=2)
        other.load_state_dict(norm.state_dict())
        x = np.array([3.0, 4.0])
        other.freeze()
        norm.freeze()
        assert np.allclose(norm(x), other(x))


def scale(scaler, reward, done=False, env=0):
    """One reward of one env through ``scale_batch``."""
    out = scaler.scale_batch(
        np.array([reward]), np.array([done]), np.array([env], dtype=np.intp)
    )
    return float(out[0])


class TestRewardScaler:
    def test_scaling_reduces_magnitude_of_big_rewards(self):
        scaler = RewardScaler(gamma=0.9)
        outs = [scale(scaler, -100.0) for _ in range(200)]
        assert abs(outs[-1]) < 10.0

    def test_disabled_passthrough(self):
        scaler = RewardScaler(enabled=False)
        assert scale(scaler, -42.0) == -42.0

    def test_sign_preserved(self):
        scaler = RewardScaler()
        for _ in range(50):
            out = scale(scaler, -3.0)
            assert out <= 0.0

    def test_done_resets_return(self):
        scaler = RewardScaler(gamma=1.0)
        scale(scaler, -1.0, done=True)
        assert scaler._ret[0] == 0.0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            RewardScaler(gamma=1.5)

    def test_freeze_stops_adaptation(self):
        scaler = RewardScaler()
        for _ in range(20):
            scale(scaler, -5.0)
        scaler.freeze()
        var_before = scaler.rms.var.copy()
        scale(scaler, -1e9)
        assert np.allclose(scaler.rms.var, var_before)

    def test_state_roundtrip(self):
        scaler = RewardScaler()
        for _ in range(20):
            scale(scaler, -2.0)
        other = RewardScaler()
        other.load_state_dict(scaler.state_dict())
        other.freeze()
        scaler.freeze()
        assert scale(scaler, -2.0) == pytest.approx(scale(other, -2.0))

    def test_per_env_chains_match_per_row_loop(self):
        """The elementwise update equals one float chain per env, bit for bit."""
        gamma = 0.9
        scaler = RewardScaler(gamma=gamma, n_envs=3)
        rng = np.random.default_rng(0)
        chains = {0: 0.0, 1: 0.0, 2: 0.0}
        for step in range(40):
            ids = np.array([0, 2] if step % 3 else [0, 1, 2], dtype=np.intp)
            rewards = rng.normal(-10.0, 3.0, ids.size)
            dones = rng.random(ids.size) < 0.2
            scaler.scale_batch(rewards, dones, ids)
            for e, r, d in zip(ids.tolist(), rewards.tolist(), dones.tolist()):
                ret = gamma * chains[e] + r
                chains[e] = 0.0 if d else ret
            assert scaler._ret.tolist() == [chains[0], chains[1], chains[2]]

    def test_multi_env_state_roundtrip(self):
        scaler = RewardScaler(n_envs=2)
        scaler.scale_batch(np.array([-1.0, -2.0]), np.array([False, False]),
                           np.array([0, 1], dtype=np.intp))
        other = RewardScaler(n_envs=2)
        other.load_state_dict(scaler.state_dict())
        assert np.array_equal(other._ret, scaler._ret)

    def test_legacy_scalar_ret_seeds_env_zero(self):
        scaler = RewardScaler(n_envs=2)
        state = scaler.state_dict()
        state["ret"] = np.asarray(-3.5)
        other = RewardScaler(n_envs=2)
        other.load_state_dict(state)
        assert other._ret.tolist() == [-3.5, 0.0]

    def test_legacy_per_env_returns_load(self):
        state = RewardScaler().state_dict()
        state["ret"] = np.asarray(0.0)
        state["ret_vec_ids"] = np.array([0, 1], dtype=np.int64)
        state["ret_vec_vals"] = np.array([-1.25, -2.5])
        for n_envs, expect in ((2, [-1.25, -2.5]), (1, [-1.25])):
            scaler = RewardScaler(n_envs=n_envs)
            scaler.load_state_dict(state)
            assert scaler._ret.tolist() == expect
