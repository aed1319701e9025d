"""Tests for repro.obs.telemetry and its production integration points.

The contracts under test:

* round events carry the paper's per-device cost decomposition exactly
  as computed by the simulator;
* the disabled default is invisible: training with telemetry enabled
  produces a bit-identical :class:`TrainingHistory`;
* fault injection emits structured dropout/straggler/retry events;
* a killed vec-env worker leaves a ``worker_crash`` event behind;
* checkpoint/resume of a telemetry-enabled vectorized run continues the
  event log without duplicating or dropping round/episode records.
"""

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.fullspeed import FullSpeedAllocator
from repro.core.trainer import OfflineTrainer, TrainerConfig
from repro.devices.device import DeviceParams, MobileDevice
from repro.devices.fleet import DeviceFleet, FleetConfig
from repro.experiments.presets import TESTBED_PRESET, build_env_spec
from repro.experiments.runner import EvaluationRunner
from repro.faults import FaultConfig
from repro.obs import (
    NULL_TELEMETRY,
    MemoryEventSink,
    Telemetry,
    configure_telemetry,
    get_telemetry,
    read_events,
    set_telemetry,
)
from repro.parallel import SubprocVecEnv, WorkerCrashError
from repro.sim.system import FLSystem
from repro.traces.base import BandwidthTrace


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    """Never leak an installed telemetry into other tests."""
    yield
    tel = get_telemetry()
    if tel.enabled:
        tel.close()
    set_telemetry(NULL_TELEMETRY)


def memory_telemetry() -> Telemetry:
    return set_telemetry(Telemetry(sink=MemoryEventSink()))


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


def tiny_preset(n_devices: int = 2, episode_length: int = 6):
    return replace(
        TESTBED_PRESET,
        trace_slots=200,
        episode_length=episode_length,
        n_devices=n_devices,
        fleet=FleetConfig(n_devices=n_devices),
    )


class TestRoundEvents:
    def test_round_event_matches_iteration_result(self):
        tel = memory_telemetry()
        system = FLSystem(make_fleet())
        result = system.step(np.full(3, 1.0))
        (e,) = tel.sink.of_type("round")
        assert e["iteration"] == 0
        assert e["cost"] == pytest.approx(result.cost)
        assert e["reward"] == pytest.approx(result.reward)
        assert e["t_iter_s"] == pytest.approx(result.iteration_time)
        assert e["straggler"] == int(np.argmax(result.device_times))
        assert e["n_participants"] == result.n_participants
        assert len(e["t_cmp_s"]) == 3
        assert e["t_cmp_s"] == pytest.approx(result.compute_times, rel=1e-5)
        assert e["t_com_s"] == pytest.approx(result.upload_times, rel=1e-5)
        assert e["energy_j"] == pytest.approx(result.energies, rel=1e-5)
        assert e["freq_ghz"] == pytest.approx(result.frequencies, rel=1e-5)

    def test_round_counters_and_histograms(self):
        tel = memory_telemetry()
        system = FLSystem(make_fleet())
        for _ in range(4):
            system.step(np.full(3, 1.0))
        assert tel.registry.counter("rounds").value == 4
        assert tel.registry.histogram("round.cost").n == 4

    def test_disabled_emits_nothing(self):
        system = FLSystem(make_fleet())
        system.step(np.full(3, 1.0))
        assert get_telemetry() is NULL_TELEMETRY
        assert get_telemetry().sink.seq == 0


class TestFaultEvents:
    CFG = FaultConfig(
        dropout_prob=0.3,
        straggler_prob=0.4,
        upload_failure_prob=0.4,
        seed=7,
    )

    def test_fault_kinds_emitted(self):
        tel = memory_telemetry()
        system = FLSystem(make_fleet(), faults=self.CFG)
        for _ in range(20):
            system.step(np.full(3, 1.0))
        kinds = {e["kind"] for e in tel.sink.of_type("fault")}
        assert {"dropout", "straggler", "retry"} <= kinds
        retry = next(e for e in tel.sink.of_type("fault") if e["kind"] == "retry")
        assert len(retry["devices"]) == len(retry["failures"])
        assert len(retry["devices"]) == len(retry["backoff_s"])
        assert all(b >= 0 for b in retry["backoff_s"])
        assert tel.registry.counter("faults.dropout").value > 0

    def test_fault_events_do_not_change_trajectory(self):
        def run(enable):
            if enable:
                memory_telemetry()
            else:
                set_telemetry(NULL_TELEMETRY)
            system = FLSystem(make_fleet(), faults=self.CFG)
            for _ in range(10):
                system.step(np.full(3, 1.0))
            return [r.cost for r in system.history]

        assert run(False) == run(True)


class TestTrainingInstrumentation:
    def test_enabled_history_bit_identical_to_disabled(self):
        spec = build_env_spec(tiny_preset(), seed=0)

        def train():
            trainer = OfflineTrainer(
                spec.build(0),
                TrainerConfig(n_episodes=3, hidden=(8,), buffer_size=16),
                rng=0,
            )
            return trainer.train()

        set_telemetry(NULL_TELEMETRY)
        h_off = train()
        tel = memory_telemetry()
        h_on = train()

        assert np.array_equal(h_off.episode_costs, h_on.episode_costs)
        assert np.array_equal(h_off.episode_rewards, h_on.episode_rewards)
        # The enabled run also left a log behind.
        assert len(tel.sink.of_type("episode")) == 3
        assert len(tel.sink.of_type("round")) == 3 * 6
        assert len(tel.sink.of_type("update")) >= 1

    def test_update_events_carry_drl_diagnostics(self):
        spec = build_env_spec(tiny_preset(), seed=0)
        tel = memory_telemetry()
        OfflineTrainer(
            spec.build(0),
            TrainerConfig(n_episodes=3, hidden=(8,), buffer_size=16),
            rng=0,
        ).train()
        updates = tel.sink.of_type("update")
        assert updates
        e = updates[0]
        assert e["algorithm"] == "ppo"
        for key in (
            "policy_loss", "value_loss", "entropy", "approx_kl",
            "clip_fraction", "grad_norm_actor", "grad_norm_critic", "wall_s",
        ):
            assert key in e, key

    def test_one_env_update_events_carry_wall_s(self):
        """Every update of a one-env run is timed, so ``summarize`` shows
        its ``update.<algorithm>`` phase row."""
        from repro.obs.summarize import phase_table

        spec = build_env_spec(tiny_preset(), seed=0)
        tel = memory_telemetry()
        trainer = OfflineTrainer(
            spec.build(0),
            TrainerConfig(n_episodes=6, hidden=(8,), buffer_size=16),
            rng=0,
        )
        trainer.train()
        updates = tel.sink.of_type("update")
        assert len(updates) == trainer.agent.total_updates >= 2
        assert all(e["wall_s"] > 0 for e in updates)
        assert "update.ppo" in phase_table(tel.sink.records)
        (batch, *_) = tel.sink.of_type("collector")
        assert batch["n_envs"] == 1 and batch["steps"] == 6

    def test_collector_batch_event(self):
        spec = build_env_spec(tiny_preset(), seed=1)
        tel = memory_telemetry()
        OfflineTrainer(
            config=TrainerConfig(
                n_episodes=2, hidden=(8,), buffer_size=16, num_envs=2,
            ),
            rng=0,
            env_spec=spec,
        ).train()
        (batch,) = tel.sink.of_type("collector")
        assert batch["n_envs"] == 2
        assert batch["steps"] == 2 * 6
        assert batch["steps_per_sec"] > 0
        assert 0.0 < batch["worker_utilization"] <= 1.0


class TestEvaluationInstrumentation:
    def test_eval_spans_and_method_events(self):
        preset = tiny_preset()
        tel = memory_telemetry()
        runner = EvaluationRunner(preset, seed=0)
        result = runner.evaluate([FullSpeedAllocator()], n_iterations=3)
        (span,) = tel.sink.of_type("span")
        assert span["name"] == "evaluate.full-speed"
        (method,) = tel.sink.of_type("eval_method")
        assert method["method"] == "full-speed"
        assert method["avg_cost"] == pytest.approx(
            result.method("full-speed").avg_cost
        )
        assert len(tel.sink.of_type("round")) == 3


class TestWorkerCrashEvents:
    def test_killed_worker_leaves_crash_event(self):
        spec = build_env_spec(tiny_preset(), seed=0)
        tel = memory_telemetry()
        venv = SubprocVecEnv(spec, 2, workers=2, timeout=10.0)
        try:
            venv.reset()
            os.kill(venv._procs[0].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                for _ in range(4):
                    venv.step(np.zeros((2, venv.act_dim)))
        finally:
            venv.close()
        crashes = tel.sink.of_type("worker_crash")
        assert crashes
        e = crashes[0]
        assert e["worker"] == 0
        assert e["reason"] in ("died", "unresponsive", "pipe_closed", "pipe_broken")
        assert tel.registry.counter("worker_crashes").value >= 1


class TestCheckpointResumeLog:
    def test_resume_neither_duplicates_nor_drops_records(self, tmp_path):
        """The seq-watermark contract, end to end.

        A telemetry-enabled vectorized run checkpoints at episode 4 and
        keeps training to 6, so the log's tail (episodes 4-5 and their
        rounds) postdates the last checkpoint — exactly the state a
        crash would leave.  Resuming on the same directory must rewind
        that tail and re-emit it exactly once.
        """
        spec = build_env_spec(tiny_preset(), seed=0)
        tel_dir = str(tmp_path / "tel")
        ck = str(tmp_path / "vec.ckpt.npz")

        def config():
            return TrainerConfig(
                n_episodes=6, hidden=(8,), buffer_size=16,
                num_envs=2, checkpoint_every=4, checkpoint_path=ck,
            )

        # Uninterrupted reference run (separate directory).
        ref_dir = str(tmp_path / "ref")
        tel = configure_telemetry(ref_dir, buffer_records=1)
        OfflineTrainer(config=config(), rng=0, env_spec=spec).train()
        tel.close()
        ref_rounds = read_events(
            os.path.join(ref_dir, "events.jsonl"), type_="round"
        )

        # The "crashed" run: completes, but its last checkpoint is at
        # episode 4, so records for episodes 4-5 postdate the watermark.
        tel = configure_telemetry(tel_dir, buffer_records=1)
        OfflineTrainer(config=config(), rng=0, env_spec=spec).train()
        tel.close()

        # Resume from the checkpoint on the same telemetry directory.
        tel = configure_telemetry(tel_dir, buffer_records=1)
        resumed = OfflineTrainer(config=config(), rng=0, env_spec=spec)
        assert resumed.resume(ck) == 4
        resumed.train()
        tel.close()

        events = read_events(os.path.join(tel_dir, "events.jsonl"))
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs)), "duplicate sequence numbers"

        episodes = sorted(
            e["index"] for e in events if e["type"] == "episode"
        )
        assert episodes == [0, 1, 2, 3, 4, 5]

        rounds = [e for e in events if e["type"] == "round"]
        assert len(rounds) == 6 * 6  # n_episodes * episode_length
        # Round payloads (deterministic, no wall-clock fields) match the
        # uninterrupted run record for record.
        strip = lambda e: {k: v for k, v in e.items() if k != "seq"}
        assert [strip(e) for e in rounds] == [strip(e) for e in ref_rounds]


class TestTelemetrySession:
    def test_session_writes_manifest_and_restores_null(self, tmp_path):
        from repro.obs import telemetry_session

        d = str(tmp_path / "run")
        with telemetry_session(d, command="test", seed=3) as tel:
            assert get_telemetry() is tel
            tel.event("ping", value=1)
        assert get_telemetry() is NULL_TELEMETRY
        assert os.path.exists(os.path.join(d, "manifest.json"))
        (e,) = read_events(os.path.join(d, "events.jsonl"))
        assert e["type"] == "ping" and e["value"] == 1
