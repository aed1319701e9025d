"""Command-line interface: ``python -m repro <command>`` / ``repro <command>``.

Commands
--------
``train``          offline DRL training (Algorithm 1) + checkpoint save
``evaluate``       online reasoning: compare allocators on a preset
``export-policy``  distill a checkpoint into a frozen serving artifact
``serve``          online allocation service over TCP (repro.serve)
``serve-bench``    seeded load test against a running server
``loop``           closed-loop policy lifecycle: run / status / retrain (repro.loop)
``traces``         generate synthetic traces to CSV / report their statistics
``fig``            regenerate a paper figure's numbers (2, 3, 6, 7, 8)
``soak``           kill/resume chaos harness (repro.resilience.soak)
``telemetry``      summarize a ``--telemetry-dir`` produced by train/evaluate
``analyze``        project-specific static checks (REP001-REP007, repro.analysis)

Output goes through :data:`repro.obs.console` (level-filtered; ``--quiet``
suppresses everything below warnings).  ``train``/``evaluate`` accept
``--telemetry-dir`` to record a JSONL event log plus run manifest (see
:mod:`repro.obs`); the default is no telemetry and a bit-identical run.
``train``/``evaluate`` also accept ``--sanitize`` (or ``REPRO_SANITIZE=1``
in the environment) to activate the runtime numerical sanitizer of
:mod:`repro.analysis.sanitizer`.

Everything the CLI does is also available as a library call; the CLI
exists so experiments can be scripted without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from repro.obs import console, get_telemetry
from repro.utils.tables import format_table


def _get_preset(name: str, n_devices=None, lam=None, episode_length=None):
    from repro.devices.fleet import FleetConfig
    from repro.experiments.presets import SIMULATION_PRESET, TESTBED_PRESET

    presets = {"testbed": TESTBED_PRESET, "simulation": SIMULATION_PRESET}
    try:
        preset = presets[name]
    except KeyError:
        raise SystemExit(f"unknown preset {name!r}; available: {sorted(presets)}")
    if n_devices is not None:
        preset = replace(
            preset, n_devices=n_devices, fleet=FleetConfig(n_devices=n_devices)
        )
    if lam is not None:
        preset = replace(preset, lam=lam)
    if episode_length is not None:
        preset = replace(preset, episode_length=episode_length)
    return preset


def _apply_faults(preset, args):
    """Layer the CLI's fault-injection/degradation flags onto a preset."""
    from repro.experiments.presets import with_faults
    from repro.faults import FaultConfig

    faults = FaultConfig(
        dropout_prob=args.dropout,
        straggler_prob=args.straggler,
        upload_failure_prob=args.upload_failure,
        seed=args.fault_seed,
    ).validate()
    if not (faults.enabled or args.deadline or args.quorum > 1):
        return preset
    return with_faults(
        preset,
        faults if faults.enabled else None,
        round_deadline_s=args.deadline,
        min_quorum=args.quorum,
    )


def _add_sanitize_flag(parser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable runtime shape/dtype/NaN contract checks "
             "(repro.analysis.sanitizer); also honored via REPRO_SANITIZE=1",
    )


def _maybe_enable_sanitizer(args) -> None:
    if getattr(args, "sanitize", False):
        from repro.analysis import enable_sanitizer

        enable_sanitizer()


def _add_lockwatch_flag(parser) -> None:
    parser.add_argument(
        "--lockwatch", action="store_true",
        help="enable the runtime lock-order watchdog "
             "(repro.analysis.lockwatch); also honored via REPRO_LOCKWATCH=1",
    )


def _maybe_enable_lockwatch(args) -> bool:
    """Enable the lockwatch for this command; True iff *we* turned it on.

    Returns False when it was already active (REPRO_LOCKWATCH=1 enabled
    it in :func:`main` before any lock existed) so the scope teardown
    does not disable an environment-requested watch.
    """
    if not getattr(args, "lockwatch", False):
        return False
    from repro.analysis import enable_lockwatch, get_lockwatch

    if get_lockwatch() is not None:
        return False
    enable_lockwatch()
    return True


def _lockwatch_summary() -> None:
    """Print the watch's one-line summary (CI greps ``0 cycles``)."""
    from repro.analysis import get_lockwatch

    watch = get_lockwatch()
    if watch is not None:
        console.always(watch.format_summary())


def _add_telemetry_flags(parser) -> None:
    parser.add_argument("--telemetry-dir", default=None,
                        help="record a JSONL event log + run manifest here")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="force telemetry off even if --telemetry-dir is set")


def _configure_telemetry(args, command: str, config=None):
    """Install file-backed telemetry when the flags ask for it.

    Returns the live :class:`repro.obs.Telemetry` (caller must pass it
    to :func:`_teardown_telemetry` in a ``finally``) or ``None``.
    """
    if getattr(args, "no_telemetry", False) or not getattr(args, "telemetry_dir", None):
        return None
    from repro.obs import configure_telemetry

    return configure_telemetry(
        args.telemetry_dir,
        command=command,
        seed=getattr(args, "seed", None),
        config=config,
    )


def _teardown_telemetry(telemetry) -> None:
    if telemetry is None:
        return
    from repro.obs import NULL_TELEMETRY, set_telemetry

    telemetry.close()
    set_telemetry(NULL_TELEMETRY)


@contextmanager
def _telemetry_scope(args, command: str, config=None):
    """Telemetry (and the sanitizer/lockwatch flags) scoped to a command.

    Guarantees :func:`_teardown_telemetry` runs however the body exits —
    including failures *before* the command's own work starts, which a
    hand-rolled configure/try/finally sequence can leak past.  The
    lockwatch is enabled before the body so every lock the command
    constructs is watched, and disabled afterwards (only if this scope
    enabled it) so in-process ``main()`` reentrancy — the test suite —
    never leaks a patched ``threading.Lock`` into the next command.
    """
    telemetry = _configure_telemetry(args, command, config=config)
    lockwatch_owned = False
    try:
        _maybe_enable_sanitizer(args)
        lockwatch_owned = _maybe_enable_lockwatch(args)
        yield telemetry
    finally:
        if lockwatch_owned:
            from repro.analysis import disable_lockwatch

            disable_lockwatch()
        _teardown_telemetry(telemetry)


def _add_fault_flags(parser) -> None:
    parser.add_argument("--dropout", type=float, default=0.0,
                        help="per-device per-round dropout probability")
    parser.add_argument("--straggler", type=float, default=0.0,
                        help="per-device per-round straggler probability")
    parser.add_argument("--upload-failure", type=float, default=0.0,
                        help="per-attempt transient upload-failure probability")
    parser.add_argument("--deadline", type=float, default=None,
                        help="round deadline T_max in seconds")
    parser.add_argument("--quorum", type=int, default=1,
                        help="minimum completing devices per round")
    parser.add_argument("--fault-seed", type=int, default=0)


def cmd_train(args) -> int:
    from repro.core.trainer import OfflineTrainer, TrainerConfig
    from repro.experiments.presets import build_env, build_env_spec
    from repro.resilience import GracefulDrain

    preset = _apply_faults(
        _get_preset(args.preset, args.devices, args.lam, args.episode_length),
        args,
    )
    # The checkpoint path is always configured (even with periodic
    # checkpoints off) so a SIGTERM drain has somewhere durable to land.
    ckpt_path = args.out + ".ckpt"
    config = TrainerConfig(
        n_episodes=args.episodes,
        algorithm=args.algorithm,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=ckpt_path,
        checkpoint_keep=args.checkpoint_keep,
        num_envs=args.num_envs,
        workers=args.workers,
        supervise=args.supervise,
        max_restarts=args.max_restarts,
    )
    # One env trains on build_env's own env; more envs (or workers) are
    # rebuilt from the spec.
    env, env_spec = build_env(preset, seed=args.seed), build_env_spec(preset, seed=args.seed)
    with _telemetry_scope(
        args, "train", config={"preset": preset, "trainer": config}
    ) as telemetry:
        trainer = OfflineTrainer(env, config, rng=args.seed, env_spec=env_spec)
        if args.resume:
            episode = trainer.resume(args.resume)
            console.info(f"resumed from {args.resume} at episode {episode}")

        def progress(episode, summary):
            if (episode + 1) % max(1, args.episodes // 20) == 0:
                console.info(f"episode {episode + 1:5d}/{args.episodes}  "
                             f"avg cost {summary['avg_cost']:.3f}")

        with GracefulDrain() as drain:
            with get_telemetry().span(
                "train", algorithm=args.algorithm, episodes=args.episodes
            ):
                history = trainer.train(progress_callback=progress, stop=drain)
        if trainer.drained:
            # The trainer already wrote a final checkpoint; flush the
            # event log and tell the operator how to pick the run up.
            tel = get_telemetry()
            if tel.enabled:
                tel.on_drain(signal=drain.describe(), episode=trainer._episode)
                tel.flush()
            console.warning(
                f"{drain.describe()} received: drained at episode "
                f"{trainer._episode}/{args.episodes}; checkpoint saved to "
                f"{ckpt_path}"
            )
            console.warning(
                f"resume with: repro train --resume {ckpt_path} "
                f"--episodes {args.episodes} --seed {args.seed} "
                f"--out {args.out}"
            )
            return 0
        window = min(10, max(1, history.n_episodes // 2))
        improvement = history.improvement(head=window, tail=window)
        console.info(
            f"trained {history.n_episodes} episodes / {history.n_updates} "
            f"updates; cost improvement {improvement:.1%}"
        )
        if history.skipped_updates:
            console.warning(
                f"guards skipped {history.skipped_updates} non-finite updates"
            )
        trainer.save_agent(args.out)
        console.info(f"checkpoint written to {args.out}")
        if telemetry is not None:
            console.info(f"telemetry written to {args.telemetry_dir}")
    return 0


def _build_allocators(names, checkpoint, hidden):
    from repro.baselines import (
        FullSpeedAllocator,
        HeuristicAllocator,
        OracleAllocator,
        PredictiveAllocator,
        RandomAllocator,
        StaticAllocator,
    )
    from repro.core.drl_allocator import DRLAllocator

    out = []
    for name in names:
        if name == "drl":
            if not checkpoint:
                raise SystemExit("--checkpoint is required to evaluate 'drl'")
            if checkpoint.endswith(".policy.npz"):
                # A serving artifact (repro export-policy) also evaluates.
                out.append(DRLAllocator.from_artifact(checkpoint))
            else:
                # Walks the rotation chain, so a corrupt newest
                # generation falls back instead of aborting the eval.
                out.append(DRLAllocator.from_checkpoint(checkpoint, hidden=hidden))
        elif name == "drl-online":
            from repro.core.online import OnlineAdaptingAllocator

            if not checkpoint:
                raise SystemExit(
                    "--checkpoint is required to evaluate 'drl-online'"
                )
            if checkpoint.endswith(".policy.npz"):
                raise SystemExit(
                    "'drl-online' keeps training, so it needs an agent "
                    "checkpoint (repro train --out), not a frozen "
                    "*.policy.npz artifact"
                )
            out.append(
                OnlineAdaptingAllocator.from_checkpoint(checkpoint, hidden=hidden)
            )
        elif name == "heuristic":
            out.append(HeuristicAllocator())
        elif name == "static":
            out.append(StaticAllocator(rng=1))
        elif name == "oracle":
            out.append(OracleAllocator())
        elif name == "full-speed":
            out.append(FullSpeedAllocator())
        elif name == "random":
            out.append(RandomAllocator(rng=1))
        elif name.startswith("predictive-"):
            out.append(PredictiveAllocator(name.split("-", 1)[1]))
        else:
            raise SystemExit(f"unknown allocator {name!r}")
    return out


def cmd_evaluate(args) -> int:
    from repro.experiments.runner import EvaluationRunner

    preset = _apply_faults(_get_preset(args.preset, args.devices, args.lam), args)
    with _telemetry_scope(args, "evaluate", config={"preset": preset}):
        runner = EvaluationRunner(preset, seed=args.seed)
        allocators = _build_allocators(
            args.allocators, args.checkpoint,
            tuple(args.hidden) if args.hidden else None,
        )
        result = runner.evaluate(allocators, n_iterations=args.iters)
        rows = [
            [name, m.avg_cost, m.avg_time, m.avg_energy]
            for name, m in result.metrics.items()
        ]
        console.info(format_table(
            ["method", "avg cost", "avg time", "avg energy"],
            rows,
            title=f"{preset.name}: {args.iters or preset.eval_iterations} iterations",
        ))
        console.info("ranking: " + " < ".join(result.ranking()))
    return 0


def cmd_traces(args) -> int:
    from repro.traces.analysis import fluctuation_report
    from repro.traces.loader import save_trace_csv
    from repro.traces.synthetic import SCENARIOS, hsdpa_bus_trace, scenario_trace

    traces = []
    for i in range(args.count):
        if args.kind == "hsdpa":
            traces.append(hsdpa_bus_trace(n_slots=args.slots, rng=args.seed + i,
                                          name=f"hsdpa-{i}"))
        elif args.kind in SCENARIOS:
            traces.append(scenario_trace(args.kind, n_slots=args.slots,
                                         rng=args.seed + i))
        else:
            raise SystemExit(
                f"unknown kind {args.kind!r}; available: {sorted(SCENARIOS) + ['hsdpa']}"
            )
    report = fluctuation_report(traces)
    rows = [
        [name, s["mean_mbps"], s["min_mbps"], s["max_mbps"], s["lag1_autocorr"]]
        for name, s in report.items()
    ]
    console.info(format_table(
        ["trace", "mean Mbit/s", "min", "max", "lag-1 autocorr"], rows
    ))
    if args.out_dir:
        import os

        os.makedirs(args.out_dir, exist_ok=True)
        for i, trace in enumerate(traces):
            path = os.path.join(args.out_dir, f"{args.kind}-{i}.csv")
            save_trace_csv(trace, path)
            console.info(f"wrote {path}")
    return 0


def cmd_fig(args) -> int:
    if args.number == 2:
        from repro.experiments.fig2 import run_fig2

        result = run_fig2(seed=args.seed)
        for name, (lo, hi) in result.walking_range_mbytes().items():
            console.info(f"{name}: {lo:.2f} - {hi:.2f} MB/s")
        lo, hi = result.hsdpa_range_kbytes()
        console.info(f"hsdpa: {lo:.0f} - {hi:.0f} KB/s")
    elif args.number == 3:
        from repro.experiments.fig3 import run_fig3

        result = run_fig3(seed=args.seed, n_iterations=args.iters or 200)
        console.info("idle fractions under full speed: "
                     f"{np.round(result.idle_fractions, 3)}")
        console.info(f"DVFS recovers {result.energy_saving:.1%} energy at "
                     f"{result.time_penalty:+.1%} time")
    elif args.number == 6:
        from repro.experiments.fig6 import run_fig6

        result = run_fig6(n_episodes=args.episodes, seed=args.seed)
        costs = result.episode_costs
        console.info(f"episode cost: first 10 avg {costs[:10].mean():.2f}, "
                     f"last 10 avg {costs[-10:].mean():.2f}")
        console.info(f"loss stabilized: {result.loss_stabilized()}")
    elif args.number == 7:
        from repro.experiments.fig7 import run_fig7
        from repro.experiments.reporting import fig7_report

        result = run_fig7(n_episodes=args.episodes, eval_iterations=args.iters,
                          seed=args.seed)
        console.info(fig7_report(result))
    elif args.number == 8:
        from repro.experiments.fig8 import run_fig8
        from repro.experiments.reporting import fig8_report

        result = run_fig8(n_episodes=args.episodes or 200,
                          eval_iterations=args.iters, seed=args.seed)
        console.info(fig8_report(result))
    else:
        raise SystemExit("supported figures: 2, 3, 6, 7, 8")
    return 0


def cmd_soak(args) -> int:
    import tempfile

    from repro.resilience import SoakConfig, run_crash_soak, run_soak

    if args.mode == "crash":
        result = run_crash_soak(
            n_envs=args.num_envs,
            workers=max(1, args.workers),
            episodes=args.episodes,
            steps_per_episode=args.episode_length,
            kills=args.kills,
            rng=args.seed,
        )
        console.always(result.summary())
        return 0 if result.ok else 1

    config = SoakConfig(
        episodes=args.episodes,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.checkpoint_keep,
        kills=args.kills,
        mode=args.mode,
        seed=args.seed,
        num_envs=args.num_envs,
        workers=args.workers,
        devices=args.devices,
        episode_length=args.episode_length,
        kill_spread_s=args.kill_spread,
    )
    if args.out_dir:
        result = run_soak(config, args.out_dir, rng=args.seed)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as out_dir:
            result = run_soak(config, out_dir, rng=args.seed)
    console.always(result.summary())
    return 0 if result.ok else 1


def cmd_telemetry(args) -> int:
    from repro.obs.summarize import summarize_run

    if args.telemetry_command == "summarize":
        try:
            report = summarize_run(args.dir)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc))
        # The report is the command's product: print it even under --quiet.
        console.always(report)
    return 0


def cmd_profile(args) -> int:
    """Deterministic hot-path profiling -> BENCH_<name>.json record.

    Timing runs through the span machinery on an in-memory telemetry
    the profiler installs itself, so --telemetry-dir is intentionally
    not offered here: an external sink would add I/O inside the timed
    sections.
    """
    from repro.perf import ProfileConfig, run_profile, write_record

    config = ProfileConfig(
        seed=args.seed,
        devices=args.devices,
        episodes=args.episodes,
        requests=args.requests,
        max_batch=args.max_batch,
        fast=args.fast,
    )
    record = run_profile(args.workload, config)
    path = write_record(record, args.out)
    console.always(f"wrote {path}")
    for family in ("throughput", "gated"):
        for metric, value in sorted(record[family].items()):
            console.always(f"  {family}.{metric} = {value:.4g}")
    return 0


def cmd_perf_compare(args) -> int:
    """Gate a benchmark record against a committed baseline."""
    from repro.perf import (
        EXIT_MISSING_BASELINE,
        EXIT_OK,
        EXIT_REGRESSION,
        compare_records,
        load_record,
    )

    try:
        baseline = load_record(args.baseline)
    except FileNotFoundError:
        console.always(
            f"perf compare: baseline record not found: {args.baseline}"
        )
        return EXIT_MISSING_BASELINE
    try:
        current = load_record(args.current)
    except FileNotFoundError:
        console.always(
            f"perf compare: current record not found: {args.current} "
            "(run `repro profile` first)"
        )
        return EXIT_MISSING_BASELINE
    result = compare_records(
        current, baseline, tolerance=args.tolerance, include_raw=args.raw
    )
    console.always(result.describe())
    return EXIT_OK if result.passed else EXIT_REGRESSION


def cmd_analyze(args) -> int:
    from repro.analysis import (
        AnalysisConfig,
        analyze_paths,
        format_json,
        format_rules,
        format_text,
    )

    if args.list_rules:
        console.always(format_rules())
        return 0
    select = None
    if args.select:
        select = frozenset(
            code.strip().upper()
            for part in args.select
            for code in part.split(",")
            if code.strip()
        )
    config = AnalysisConfig(select=select)
    try:
        result = analyze_paths(args.paths, config=config)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    # One exit-code computation feeds both reporters and the process
    # status: `--format json` must gate CI exactly like text mode.
    exit_code = result.exit_code(forbid_blanket=args.no_blanket)
    if args.format == "json":
        console.always(format_json(result, forbid_blanket=args.no_blanket))
    else:
        report = format_text(result, forbid_blanket=args.no_blanket)
        if exit_code == 0:
            console.info(report)
        else:
            console.always(report)
    return exit_code


def cmd_export_policy(args) -> int:
    from repro.experiments.presets import build_fleet
    from repro.serve import export_policy

    # The action bounds come from the deployment fleet, rebuilt
    # deterministically from (preset, devices, seed) — training
    # checkpoints never stored them.
    preset = _get_preset(args.preset, args.devices)
    fleet = build_fleet(preset, seed=args.seed)
    artifact = export_policy(
        args.checkpoint,
        args.out,
        fleet.max_frequencies,
        floor_frac=args.floor_frac,
        keep=args.keep,
    )
    console.info(
        f"exported {artifact.policy} policy "
        f"(obs_dim={artifact.obs_dim}, act_dim={artifact.act_dim}) "
        f"to {args.out}"
    )
    console.always(f"artifact version: {artifact.version}")
    return 0


def cmd_serve(args) -> int:
    from repro.resilience import GracefulDrain
    from repro.serve import AllocationServer, PolicyRegistry, ServeConfig
    from repro.utils.serialization import CheckpointCorruptError

    with _telemetry_scope(args, "serve"):
        registry = PolicyRegistry(args.policy)
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            deadline_ms=args.deadline_ms,
            drain_grace_s=args.drain_grace,
        )
        try:
            server = AllocationServer(registry, config)
        except (FileNotFoundError, CheckpointCorruptError) as exc:
            raise SystemExit(f"cannot serve {args.policy}: {exc}")
        host, port = server.start()
        # The bound address is the command's product (port 0 binds an
        # ephemeral port): print it even under --quiet so scripts and CI
        # can discover where to connect.
        console.always(f"serving {registry.version()} on {host}:{port}")
        with GracefulDrain() as drain:
            server.run_until(drain)
        console.info(f"drained ({drain.describe() or 'stopped'})")
        _lockwatch_summary()
    return 0


def cmd_serve_bench(args) -> int:
    from repro.serve import LoadConfig, run_load

    with _telemetry_scope(args, "serve-bench"):
        config = LoadConfig(
            host=args.host,
            port=args.port,
            requests=args.requests,
            concurrency=args.concurrency,
            seed=args.seed,
            mode=args.mode,
            rate=args.rate,
            deadline_ms=args.deadline_ms,
        )
        report = run_load(config)
        console.always(report.summary())
        if report.n_errors and not args.allow_errors:
            console.warning(
                f"{report.n_errors} request(s) failed: {report.errors_by_code}"
            )
            return 1
    return 0


def cmd_loop_run(args) -> int:
    import os

    from repro.experiments.presets import build_fleet
    from repro.loop import (
        CanaryConfig,
        ExperienceStore,
        LoopConfig,
        LoopController,
        RetrainConfig,
        inject_step_drift,
    )
    from repro.serve import PolicyRegistry
    from repro.sim.system import FLSystem
    from repro.utils.serialization import CheckpointCorruptError

    if not os.path.isdir(args.policy):
        raise SystemExit(
            f"loop run needs a directory of versioned artifacts (the "
            f"registry the canary publishes into), got {args.policy!r}"
        )
    preset = _get_preset(args.preset, args.devices, args.lam)
    with _telemetry_scope(args, "loop", config={"preset": preset}):
        fleet = build_fleet(preset, seed=args.seed)
        if args.drift_factor is not None:
            # Deterministic regime change: the world the frozen incumbent
            # trained for ends at --drift-at-slot.
            fleet = fleet.with_traces(
                inject_step_drift(
                    [d.trace for d in fleet], args.drift_factor,
                    args.drift_at_slot,
                )
            )
        system_config = preset.system_config()
        system = FLSystem(fleet, system_config)
        system.reset(
            (system_config.history_slots + 1) * system_config.slot_duration
        )
        try:
            registry = PolicyRegistry(args.policy)
            registry.current
        except (FileNotFoundError, CheckpointCorruptError) as exc:
            raise SystemExit(f"cannot serve {args.policy}: {exc}")
        store = ExperienceStore(os.path.join(args.loop_dir, "experience"))
        config = LoopConfig(
            warmup_rounds=args.warmup,
            drift_threshold=args.drift_threshold,
            drift_min_samples=args.drift_min_samples,
            replay_last_n=args.last_n,
            retrain=RetrainConfig(
                episodes=args.retrain_episodes,
                episode_length=args.retrain_episode_length,
                seed=args.retrain_seed,
                mode=args.retrain_mode,
            ),
            canary=CanaryConfig(
                iterations=args.canary_iters,
                significance=args.canary_significance,
                min_relative_improvement=args.canary_min_improvement,
                watch_rounds=args.watch_rounds,
            ),
            cooldown_rounds=args.cooldown,
            max_publishes=args.max_publishes,
            subprocess_preset=args.preset,
            subprocess_seed=args.seed,
            subprocess_devices=args.devices,
        )
        controller = LoopController(
            system, registry, store, args.checkpoint, args.loop_dir, config
        )
        status = controller.run(args.rounds)
        import json

        # The status is the command's product (CI greps it): always print.
        console.always(json.dumps(status, indent=2, sort_keys=True))
        console.info(
            f"status written to {os.path.join(args.loop_dir, 'status.json')}"
        )
        _lockwatch_summary()
    return 0


def cmd_loop_status(args) -> int:
    import json

    from repro.loop import read_status

    try:
        status = read_status(args.loop_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    console.always(json.dumps(status, indent=2, sort_keys=True))
    return 0


def cmd_loop_retrain(args) -> int:
    from repro.experiments.presets import build_fleet
    from repro.loop import (
        ExperienceStore,
        RetrainConfig,
        RetrainError,
        Retrainer,
    )

    preset = _get_preset(args.preset, args.devices)
    fleet = build_fleet(preset, seed=args.seed)
    system_config = preset.system_config()
    store = ExperienceStore(args.experience_dir)
    config = RetrainConfig(
        episodes=args.episodes,
        episode_length=args.episode_length,
        buffer_size=args.buffer_size,
        seed=args.retrain_seed,
        floor_frac=args.floor_frac,
    )
    try:
        traces = store.bandwidth_traces(
            system_config.history_slots,
            slot_duration=system_config.slot_duration,
            last_n=args.last_n,
        )
        result = Retrainer(args.checkpoint, fleet, system_config, config).retrain(
            traces, args.out
        )
    except (RetrainError, ValueError, FileNotFoundError) as exc:
        raise SystemExit(f"retrain failed: {exc}")
    console.info(
        f"retrained {result.episodes} episodes; final avg cost "
        f"{result.final_avg_cost:.3f}"
    )
    console.always(f"candidate written to {args.out} ({result.artifact.version})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experience-driven FL resource allocation (IPDPS'20 reproduction)",
    )
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress informational output (warnings still show)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="offline DRL training (Algorithm 1)")
    p.add_argument("--preset", default="testbed", help="testbed | simulation")
    p.add_argument("--episodes", type=int, default=800)
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--algorithm", default="ppo", choices=("ppo", "a2c", "ddpg"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="agent.npz")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="save a resumable checkpoint every N episodes")
    p.add_argument("--resume", default=None,
                   help="resume training from a checkpoint .npz")
    p.add_argument("--num-envs", type=int, default=1,
                   help="envs per rollout batch, stepped in lockstep")
    p.add_argument("--workers", type=int, default=0,
                   help="subprocess env workers (0 = in-process envs)")
    p.add_argument("--episode-length", type=int, default=None,
                   help="override the preset's FL rounds per episode")
    p.add_argument("--checkpoint-keep", type=int, default=1,
                   help="rotated checkpoint generations to keep (corruption "
                        "fallback reads older ones)")
    p.add_argument("--supervise", action="store_true",
                   help="auto-restart crashed/hung env workers "
                        "(requires --workers > 0)")
    p.add_argument("--max-restarts", type=int, default=8,
                   help="total worker restart budget under --supervise")
    _add_fault_flags(p)
    _add_telemetry_flags(p)
    _add_sanitize_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="online reasoning comparison")
    p.add_argument("--preset", default="testbed")
    p.add_argument(
        "--allocators", nargs="+",
        default=["heuristic", "static", "oracle", "full-speed"],
        help="drl drl-online heuristic static oracle full-speed random "
             "predictive-<name>",
    )
    p.add_argument("--checkpoint", default=None,
                   help="agent .npz (or *.policy.npz artifact) for 'drl'")
    p.add_argument("--hidden", type=int, nargs="+", default=None,
                   help="actor hidden widths (default: inferred from the "
                        "checkpoint's weight shapes)")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_fault_flags(p)
    _add_telemetry_flags(p)
    _add_sanitize_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("traces", help="generate/inspect bandwidth traces")
    p.add_argument("--kind", default="walking")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--slots", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("fig", help="regenerate a paper figure's numbers")
    p.add_argument("number", type=int, choices=(2, 3, 6, 7, 8))
    p.add_argument("--episodes", type=int, default=800)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser(
        "analyze",
        help="run the repro.analysis static checks "
             "(REP001-REP007, concurrency REP101-REP105)",
    )
    p.add_argument("paths", nargs="*", default=["src", "tests"],
                   help="files/directories to check (default: src tests)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--select", nargs="+", default=None, metavar="REPxxx",
                   help="only run these rule codes (comma/space separated)")
    p.add_argument("--no-blanket", action="store_true",
                   help="also fail on bare (code-less) 'repro: noqa' comments")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "soak",
        help="kill/resume chaos harness: prove recovery is bit-exact",
    )
    p.add_argument("--mode", default="kill", choices=("kill", "term", "crash"),
                   help="kill = SIGKILL the training process; term = SIGTERM "
                        "(graceful drain); crash = SIGKILL env workers "
                        "in-process")
    p.add_argument("--episodes", type=int, default=8)
    p.add_argument("--kills", type=int, default=2,
                   help="interruptions to attempt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=2)
    p.add_argument("--checkpoint-keep", type=int, default=3)
    p.add_argument("--num-envs", type=int, default=1)
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--devices", type=int, default=2)
    p.add_argument("--episode-length", type=int, default=8,
                   help="FL rounds per episode (steps per episode for "
                        "--mode crash)")
    p.add_argument("--kill-spread", type=float, default=2.0,
                   help="max random dwell (s) after the first checkpoint "
                        "before signalling")
    p.add_argument("--out-dir", default=None,
                   help="keep soak artifacts here (default: temp dir)")
    p.set_defaults(func=cmd_soak)

    p = sub.add_parser(
        "export-policy",
        help="distill a training checkpoint into a frozen serving artifact",
    )
    p.add_argument("checkpoint", help="trained agent .npz (repro train --out)")
    p.add_argument("--out", default="policy-v0001.policy.npz",
                   help="artifact path; version artifacts lexicographically "
                        "(policy-v0001..., policy-v0002...) for hot reload")
    p.add_argument("--preset", default="testbed",
                   help="deployment fleet preset supplying the action bounds")
    p.add_argument("--devices", type=int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="fleet-build seed (must match the evaluation fleet)")
    p.add_argument("--floor-frac", type=float, default=0.1,
                   help="minimum frequency fraction of the action map")
    p.add_argument("--keep", type=int, default=1,
                   help="rotated artifact generations to keep")
    p.set_defaults(func=cmd_export_policy)

    p = sub.add_parser(
        "serve",
        help="serve allocations over TCP (JSON lines) from a policy artifact",
    )
    p.add_argument("policy",
                   help="a policy artifact .npz, or a directory of versioned "
                        "artifacts (newest serves; 'reload' hot-swaps)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; the bound port is printed)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="max states coalesced into one policy forward")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="micro-batch coalescing window")
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission bound; beyond it requests get 'overloaded'")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="default per-request deadline")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds to drain in-flight work on SIGTERM/SIGINT")
    _add_telemetry_flags(p)
    _add_lockwatch_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "serve-bench",
        help="seeded load test against a running allocation server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--requests", type=int, default=500)
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="closed", choices=("closed", "open"),
                   help="closed = wait-then-send; open = paced arrivals")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open-loop aggregate arrival rate (req/s)")
    p.add_argument("--deadline-ms", type=float, default=None)
    p.add_argument("--allow-errors", action="store_true",
                   help="exit 0 even when some requests failed (overload tests)")
    _add_telemetry_flags(p)
    _add_lockwatch_flag(p)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "loop",
        help="closed-loop policy lifecycle: drift -> retrain -> canary",
    )
    lsub = p.add_subparsers(dest="loop_command", required=True)

    pr = lsub.add_parser(
        "run",
        help="serve a preset through the full lifecycle (repro.loop)",
    )
    pr.add_argument("policy",
                    help="directory of versioned policy artifacts — the "
                         "registry the canary publishes into")
    pr.add_argument("--checkpoint", required=True,
                    help="training checkpoint (agent .npz) retrains warm-start "
                         "from")
    pr.add_argument("--loop-dir", required=True,
                    help="working directory: experience/, candidate artifacts, "
                         "status.json")
    pr.add_argument("--rounds", type=int, default=200,
                    help="FL rounds to serve through the loop")
    pr.add_argument("--preset", default="testbed")
    pr.add_argument("--devices", type=int, default=None)
    pr.add_argument("--lam", type=float, default=None)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--drift-factor", type=float, default=None,
                    help="inject a deterministic step drift: scale every "
                         "trace's bandwidth by this factor from "
                         "--drift-at-slot onward")
    pr.add_argument("--drift-at-slot", type=int, default=64)
    pr.add_argument("--warmup", type=int, default=24,
                    help="rounds observed before the drift baseline freezes")
    pr.add_argument("--drift-threshold", type=float, default=10.0,
                    help="Page-Hinkley trigger threshold (z-score units)")
    pr.add_argument("--drift-min-samples", type=int, default=8)
    pr.add_argument("--last-n", type=int, default=None,
                    help="retrain on only the most recent N records")
    pr.add_argument("--retrain-episodes", type=int, default=8)
    pr.add_argument("--retrain-episode-length", type=int, default=16)
    pr.add_argument("--retrain-seed", type=int, default=0)
    pr.add_argument("--retrain-mode", default="inline",
                    choices=("inline", "subprocess"),
                    help="subprocess = supervised child with timeout/restarts")
    pr.add_argument("--canary-iters", type=int, default=40,
                    help="shadow-evaluation rounds per evaluation system")
    pr.add_argument("--canary-significance", type=float, default=0.05)
    pr.add_argument("--canary-min-improvement", type=float, default=0.0,
                    help="required relative mean-cost improvement to publish")
    pr.add_argument("--watch-rounds", type=int, default=16,
                    help="served rounds watched post-publish before the "
                         "candidate is final (regression => rollback)")
    pr.add_argument("--cooldown", type=int, default=16)
    pr.add_argument("--max-publishes", type=int, default=4)
    _add_telemetry_flags(pr)
    _add_lockwatch_flag(pr)
    pr.set_defaults(func=cmd_loop_run)

    ps = lsub.add_parser("status", help="print a loop run's status.json")
    ps.add_argument("loop_dir", help="the --loop-dir of a (possibly live) run")
    ps.set_defaults(func=cmd_loop_status)

    pt = lsub.add_parser(
        "retrain",
        help="(worker) warm-start retrain on stored experience; the "
             "subprocess retrainer's child command",
    )
    pt.add_argument("--checkpoint", required=True)
    pt.add_argument("--experience-dir", required=True)
    pt.add_argument("--out", required=True,
                    help="candidate artifact path (*.policy.npz)")
    pt.add_argument("--preset", default="testbed")
    pt.add_argument("--seed", type=int, default=0,
                    help="fleet-build seed (must match the serving fleet)")
    pt.add_argument("--episodes", type=int, default=8)
    pt.add_argument("--episode-length", type=int, default=16)
    pt.add_argument("--buffer-size", type=int, default=64)
    pt.add_argument("--retrain-seed", type=int, default=0)
    pt.add_argument("--floor-frac", type=float, default=0.1)
    pt.add_argument("--devices", type=int, default=None)
    pt.add_argument("--last-n", type=int, default=None)
    pt.set_defaults(func=cmd_loop_retrain)

    p = sub.add_parser("telemetry", help="inspect recorded telemetry")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    ps = tsub.add_parser("summarize",
                         help="render phase/round/update tables from a run dir")
    ps.add_argument("dir", help="directory written by --telemetry-dir")
    ps.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "profile",
        help="deterministic hot-path profiling -> BENCH_<name>.json",
    )
    p.add_argument("workload", choices=("rollout", "train", "serve"),
                   help="which hot path to profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="benchmarks/out",
                   help="directory the BENCH_<name>.json record is written to")
    p.add_argument("--devices", type=int, default=16,
                   help="fleet size of the profiled system")
    p.add_argument("--episodes", type=int, default=4,
                   help="env episodes the rollout workload collects")
    p.add_argument("--requests", type=int, default=256,
                   help="requests per batching mode for the serve workload")
    p.add_argument("--max-batch", type=int, default=16,
                   help="engine micro-batch bound for the serve workload")
    p.add_argument("--fast", action="store_true",
                   help="reduced-scale smoke mode (CI)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "perf",
        help="benchmark regression tooling over BENCH records",
    )
    psub = p.add_subparsers(dest="perf_command", required=True)
    pc = psub.add_parser(
        "compare",
        help="gate a BENCH record against a committed baseline "
             "(exit 1 on regression, 2 on missing record)",
    )
    pc.add_argument("--baseline", required=True,
                    help="committed baseline record "
                         "(benchmarks/baselines/BENCH_<name>.json)")
    pc.add_argument("--current", required=True,
                    help="freshly produced record to check")
    pc.add_argument("--tolerance", type=float, default=0.2,
                    help="max tolerated relative drop (default 0.2 = 20%%)")
    pc.add_argument("--raw", action="store_true",
                    help="also gate raw ops/sec throughputs "
                         "(hardware-dependent; same-machine comparisons only)")
    pc.set_defaults(func=cmd_perf_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Set (not toggle) the level each invocation: main() is reentrant in
    # tests and must not inherit a previous call's --quiet.
    console.set_level("warning" if args.quiet else "info")
    from repro.analysis import enable_from_env, lockwatch_enable_from_env

    enable_from_env()
    lockwatch_enable_from_env()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
