"""Tests for repro.sim — cost model, iteration simulation, system clock."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import DeviceParams, MobileDevice
from repro.devices.fleet import DeviceFleet
from repro.sim.cost import CostModel
from repro.sim.iteration import simulate_iteration
from repro.sim.system import FLSystem, SystemConfig
from repro.traces.base import BandwidthTrace


def make_fleet(bws=(10.0, 20.0, 40.0)):
    devices = []
    for i, bw in enumerate(bws):
        p = DeviceParams(
            data_mbit=600.0,
            cycles_per_mbit=0.02,
            max_frequency_ghz=1.5,
            alpha=0.05,
            e_tx=0.01,
        )
        devices.append(MobileDevice(p, BandwidthTrace(np.full(200, bw)), device_id=i))
    return DeviceFleet(devices)


class TestCostModel:
    def test_cost_formula(self):
        cm = CostModel(lam=0.5, time_unit_s=2.0)
        assert cm.cost(10.0, 4.0) == pytest.approx(5.0 + 2.0)

    def test_reward_is_negated_cost(self):
        cm = CostModel(lam=1.0)
        assert cm.reward(3.0, 2.0) == -cm.cost(3.0, 2.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CostModel(lam=-0.1)
        with pytest.raises(ValueError):
            CostModel(time_unit_s=0.0)


class TestSimulateIteration:
    def test_basic_quantities(self):
        fleet = make_fleet()
        cm = CostModel(lam=1.0)
        res = simulate_iteration(fleet, np.full(3, 1.5), 0.0, 40.0, cm)
        # t_cmp = 12/1.5 = 8 s each; t_com = 40/bw
        assert np.allclose(res.compute_times, 8.0)
        assert np.allclose(res.upload_times, [4.0, 2.0, 1.0])
        assert np.allclose(res.device_times, [12.0, 10.0, 9.0])
        assert res.iteration_time == pytest.approx(12.0)
        assert res.slowest_device == 0
        assert np.allclose(res.idle_times, [0.0, 2.0, 3.0])

    def test_energy_eq6(self):
        fleet = make_fleet()
        res = simulate_iteration(fleet, np.full(3, 1.0), 0.0, 40.0, CostModel())
        expected = 0.05 * 12.0 * 1.0 + 0.01 * np.array([4.0, 2.0, 1.0])
        assert np.allclose(res.energies, expected)

    def test_cost_and_reward_consistent(self):
        fleet = make_fleet()
        cm = CostModel(lam=0.3, time_unit_s=2.0)
        res = simulate_iteration(fleet, np.full(3, 1.2), 0.0, 40.0, cm)
        assert res.cost == pytest.approx(cm.cost(res.iteration_time, res.total_energy))
        assert res.reward == -res.cost

    def test_frequencies_clamped(self):
        fleet = make_fleet()
        res = simulate_iteration(fleet, np.full(3, 99.0), 0.0, 40.0, CostModel())
        assert np.allclose(res.frequencies, 1.5)

    def test_end_time_eq11(self):
        fleet = make_fleet()
        res = simulate_iteration(fleet, np.full(3, 1.5), 5.0, 40.0, CostModel())
        assert res.end_time == pytest.approx(5.0 + res.iteration_time)

    def test_avg_bandwidth_realized(self):
        fleet = make_fleet()
        res = simulate_iteration(fleet, np.full(3, 1.5), 0.0, 40.0, CostModel())
        assert np.allclose(res.avg_bandwidths, [10.0, 20.0, 40.0])

    def test_invalid_model_size(self):
        with pytest.raises(ValueError):
            simulate_iteration(make_fleet(), np.ones(3), 0.0, 0.0, CostModel())

    @given(
        f1=st.floats(0.1, 1.5),
        f2=st.floats(0.1, 1.5),
        f3=st.floats(0.1, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_iteration_time_is_max_of_device_times(self, f1, f2, f3):
        fleet = make_fleet()
        res = simulate_iteration(fleet, np.array([f1, f2, f3]), 0.0, 40.0, CostModel())
        assert res.iteration_time == pytest.approx(res.device_times.max())
        assert np.all(res.idle_times >= -1e-12)

    def test_slower_frequency_reduces_compute_energy(self):
        fleet = make_fleet()
        fast = simulate_iteration(fleet, np.full(3, 1.5), 0.0, 40.0, CostModel())
        slow = simulate_iteration(fleet, np.full(3, 0.8), 0.0, 40.0, CostModel())
        assert slow.total_energy < fast.total_energy
        assert slow.iteration_time > fast.iteration_time


class TestFLSystem:
    def make_system(self):
        return FLSystem(make_fleet(), SystemConfig(model_size_mbit=40.0, history_slots=4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(model_size_mbit=0.0).validate()
        with pytest.raises(ValueError):
            SystemConfig(slot_duration=0.0).validate()
        with pytest.raises(ValueError):
            SystemConfig(history_slots=-1).validate()

    def test_clock_advances(self):
        system = self.make_system()
        system.reset(10.0)
        r1 = system.step(np.full(3, 1.5))
        assert system.clock == pytest.approx(10.0 + r1.iteration_time)
        r2 = system.step(np.full(3, 1.5))
        assert r2.start_time == pytest.approx(r1.end_time)
        assert system.iteration == 2

    def test_reset_clears_history(self):
        system = self.make_system()
        system.reset(0.0)
        system.step(np.full(3, 1.5))
        system.reset(0.0)
        assert system.iteration == 0
        assert system.history == []
        assert system.last_observed_bandwidths() is None

    def test_reset_negative_raises(self):
        with pytest.raises(ValueError):
            self.make_system().reset(-1.0)

    def test_reset_random_leaves_history_margin(self):
        system = self.make_system()
        start = system.reset_random(rng=0)
        assert start >= (system.config.history_slots + 1) * system.config.slot_duration

    def test_bandwidth_state_shape_and_values(self):
        system = self.make_system()
        system.reset(50.0)
        state = system.bandwidth_state()
        assert state.shape == (3, 5)
        assert np.allclose(state[0], 10.0)
        assert np.allclose(state[2], 40.0)

    def test_current_bandwidths(self):
        system = self.make_system()
        system.reset(0.0)
        assert np.allclose(system.current_bandwidths(), [10.0, 20.0, 40.0])

    def test_last_observed_bandwidths_after_step(self):
        system = self.make_system()
        system.reset(0.0)
        system.step(np.full(3, 1.5))
        assert np.allclose(system.last_observed_bandwidths(), [10.0, 20.0, 40.0])

    def test_run_with_allocator(self):
        from repro.baselines import FullSpeedAllocator

        system = self.make_system()
        system.reset(0.0)
        results = system.run(FullSpeedAllocator(), 5)
        assert len(results) == 5
        assert system.iteration == 5

    def test_run_invalid_iterations(self):
        from repro.baselines import FullSpeedAllocator

        with pytest.raises(ValueError):
            self.make_system().run(FullSpeedAllocator(), 0)
