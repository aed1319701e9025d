"""Tests for repro.rl.gae — advantage/return estimation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.gae import compute_gae, normalize_advantages, td_targets


class TestComputeGae:
    def test_single_step_terminal(self):
        adv, ret = compute_gae([1.0], [0.5], [True], last_value=99.0, gamma=0.9, lam=0.9)
        # terminal: delta = r - v
        assert adv[0] == pytest.approx(0.5)
        assert ret[0] == pytest.approx(1.0)

    def test_single_step_bootstrap(self):
        adv, ret = compute_gae([1.0], [0.5], [False], last_value=2.0, gamma=0.9, lam=0.9)
        assert adv[0] == pytest.approx(1.0 + 0.9 * 2.0 - 0.5)

    def test_lambda_zero_is_td_error(self):
        rewards = [1.0, 0.0, -1.0]
        values = [0.2, 0.4, 0.6]
        dones = [False, False, False]
        adv, _ = compute_gae(rewards, values, dones, last_value=1.0, gamma=0.9, lam=0.0)
        expected = [
            1.0 + 0.9 * 0.4 - 0.2,
            0.0 + 0.9 * 0.6 - 0.4,
            -1.0 + 0.9 * 1.0 - 0.6,
        ]
        assert np.allclose(adv, expected)

    def test_lambda_one_is_mc_minus_value(self):
        rewards = [1.0, 2.0, 3.0]
        values = [0.5, 0.5, 0.5]
        dones = [False, False, True]
        adv, ret = compute_gae(rewards, values, dones, 0.0, gamma=1.0, lam=1.0)
        # with gamma=lam=1 and terminal end, returns are reward-to-go
        assert np.allclose(ret, [6.0, 5.0, 3.0])
        assert np.allclose(adv, ret - np.asarray(values))

    def test_done_blocks_bootstrap(self):
        adv1, _ = compute_gae([1.0, 1.0], [0.0, 0.0], [True, False], 10.0, 0.9, 0.9)
        adv2, _ = compute_gae([1.0, 1.0], [0.0, 0.0], [False, False], 10.0, 0.9, 0.9)
        # first advantage must not see beyond the done boundary
        assert adv1[0] == pytest.approx(1.0)
        assert adv2[0] != pytest.approx(1.0)

    def test_invalid_gamma_raises(self):
        with pytest.raises(ValueError):
            compute_gae([1.0], [0.0], [False], 0.0, gamma=1.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0], [False], 0.0)

    @given(
        n=st.integers(1, 30),
        gamma=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_returns_equal_adv_plus_values_property(self, n, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        dones = rng.random(n) < 0.2
        adv, ret = compute_gae(rewards, values, dones, float(rng.standard_normal()), gamma, lam)
        assert np.allclose(ret, adv + values)
        assert np.all(np.isfinite(adv))


class TestTdTargets:
    def test_values(self):
        t = td_targets([1.0, 2.0], [0.5, 0.5], [False, True], gamma=0.8)
        assert np.allclose(t, [1.4, 2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            td_targets([1.0], [0.5, 0.5], [False])


class TestNormalizeAdvantages:
    def test_zero_mean_unit_std(self):
        adv = normalize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
        assert adv.mean() == pytest.approx(0.0, abs=1e-12)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)

    def test_constant_input_no_blowup(self):
        adv = normalize_advantages(np.full(5, 3.0))
        assert np.allclose(adv, 0.0)
        assert np.all(np.isfinite(adv))


class TestGaeBitIdentity:
    """The fast list-based scan must match the reference loop bitwise."""

    def test_matches_reference_random(self):
        from repro.rl.gae import compute_gae_reference

        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            dones = rng.random(n) < 0.15
            last_value = float(rng.normal())
            adv_f, ret_f = compute_gae(rewards, values, dones, last_value)
            adv_r, ret_r = compute_gae_reference(rewards, values, dones, last_value)
            assert adv_f.tobytes() == adv_r.tobytes()
            assert ret_f.tobytes() == ret_r.tobytes()

    def test_grouped_matches_per_env(self):
        from repro.rl.gae import compute_gae_grouped, compute_gae_reference

        rng = np.random.default_rng(12)
        n, n_envs = 120, 4
        env_ids = rng.integers(0, n_envs, size=n)
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = rng.random(n) < 0.2
        last_values = {e: float(rng.normal()) for e in range(n_envs)}
        adv, ret = compute_gae_grouped(
            rewards, values, dones, env_ids, last_values
        )
        for e in range(n_envs):
            mask = env_ids == e
            adv_e, ret_e = compute_gae_reference(
                rewards[mask], values[mask], dones[mask], last_values[e]
            )
            assert adv[mask].tobytes() == adv_e.tobytes()
            assert ret[mask].tobytes() == ret_e.tobytes()

    def test_grouped_empty_input(self):
        from repro.rl.gae import compute_gae_grouped

        adv, ret = compute_gae_grouped(
            np.empty(0), np.empty(0), np.empty(0, dtype=bool),
            np.empty(0, dtype=int), {},
        )
        assert adv.size == 0 and ret.size == 0
