"""Vectorized environments: serial and subprocess backends.

Both backends expose the same synchronous batch interface — reset all
envs, step the active subset, read/write every env's RNG stream — and
both build their envs from the same :class:`repro.parallel.spec.EnvSpec`,
so trajectories are bit-identical regardless of backend or worker count
(the policy and all of its randomness stay in the main process; env
randomness is keyed only by ``(spec.seed, env_index)``).

:class:`SubprocVecEnv` shards envs over worker processes in contiguous
index chunks, one pipe per worker.  Workers that die (killed, OOM,
unhandled exception) surface as :class:`WorkerCrashError` from the next
call within a bounded timeout instead of hanging the trainer; remote
exceptions arrive with the worker's full traceback attached.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from typing import List, Optional, Sequence

import numpy as np

from repro.obs import get_telemetry
from repro.parallel.spec import EnvSpec


class WorkerCrashError(RuntimeError):
    """A subprocess env worker died or stopped responding."""


class VecEnv:
    """Synchronous batch interface over ``n_envs`` environments.

    ``step`` takes a full ``(n_envs, act_dim)`` action matrix plus a
    boolean ``active`` mask; finished envs are skipped (no auto-reset —
    the collector gathers whole episode batches, so checkpoints always
    land on clean batch boundaries).  Rows for inactive envs come back
    zeroed with ``infos[i] is None``.
    """

    n_envs: int = 0

    @property
    def obs_dim(self) -> int:
        return self._obs_dim

    @property
    def act_dim(self) -> int:
        return self._act_dim

    def reset(self) -> np.ndarray:
        raise NotImplementedError

    def step(self, actions: np.ndarray, active: Optional[np.ndarray] = None):
        raise NotImplementedError

    def get_rng_states(self) -> List[dict]:
        """Each env's ``bit_generator.state`` (checkpointing)."""
        raise NotImplementedError

    def set_rng_states(self, states: Sequence[dict]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- helpers shared by the backends -------------------------------------
    def _check_actions(self, actions, active):
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n_envs, self.act_dim):
            raise ValueError(
                f"expected actions of shape {(self.n_envs, self.act_dim)}, "
                f"got {actions.shape}"
            )
        if active is None:
            active = np.ones(self.n_envs, dtype=bool)
        else:
            active = np.asarray(active, dtype=bool).ravel()
            if active.shape != (self.n_envs,):
                raise ValueError(f"active mask must have shape ({self.n_envs},)")
        return actions, active

    def _empty_step(self):
        obs = np.zeros((self.n_envs, self.obs_dim), dtype=np.float64)
        rewards = np.zeros(self.n_envs, dtype=np.float64)
        dones = np.zeros(self.n_envs, dtype=bool)
        infos: List[Optional[dict]] = [None] * self.n_envs
        return obs, rewards, dones, infos

    def __enter__(self) -> "VecEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialVecEnv(VecEnv):
    """All envs live in the calling process (no IPC, no extra processes)."""

    def __init__(self, spec: EnvSpec, n_envs: int):
        self.spec = spec
        self._adopt([spec.build(i) for i in range(int(n_envs))])

    @classmethod
    def from_envs(cls, envs: Sequence) -> "SerialVecEnv":
        """Step already-built envs as they are: no spec, no reseeding."""
        venv = cls.__new__(cls)
        venv.spec = None
        venv._adopt(list(envs))
        return venv

    def _adopt(self, envs: list) -> None:
        if not envs:
            raise ValueError("n_envs must be positive")
        self.envs = envs
        self.n_envs = len(envs)
        self._obs_dim = envs[0].obs_dim
        self._act_dim = envs[0].act_dim
        self._closed = False

    def reset(self) -> np.ndarray:
        return np.stack([env.reset() for env in self.envs])

    def step(self, actions, active=None):
        actions, active = self._check_actions(actions, active)
        obs, rewards, dones, infos = self._empty_step()
        for i, (env, on) in enumerate(zip(self.envs, active.tolist())):
            if on:
                result = env.step(actions[i])
                obs[i] = result.observation
                rewards[i] = result.reward
                dones[i] = result.done
                infos[i] = result.info
        return obs, rewards, dones, infos

    def get_rng_states(self) -> List[dict]:
        return [env.rng.bit_generator.state for env in self.envs]

    def set_rng_states(self, states) -> None:
        states = list(states)
        if len(states) != self.n_envs:
            raise ValueError(f"expected {self.n_envs} RNG states, got {len(states)}")
        for env, state in zip(self.envs, states):
            env.rng.bit_generator.state = state

    def close(self) -> None:
        self._closed = True


# -- subprocess backend ------------------------------------------------------

def _worker(conn, spec_bytes: bytes, indices: Sequence[int]) -> None:
    """Worker loop: build the assigned envs locally, serve commands.

    Runs until "close" (or pipe EOF).  Any exception is shipped back as
    an ("error", traceback) message so the parent can re-raise with
    context instead of timing out.
    """
    try:
        spec: EnvSpec = pickle.loads(spec_bytes)
        envs = [spec.build(i) for i in indices]
        conn.send(("ready", (envs[0].obs_dim, envs[0].act_dim)))
        while True:
            cmd, payload = conn.recv()
            if cmd == "reset":
                conn.send(("ok", [env.reset() for env in envs]))
            elif cmd == "step":
                actions, mask = payload
                out = []
                for j, env in enumerate(envs):
                    if mask[j]:
                        r = env.step(actions[j])
                        out.append((r.observation, r.reward, r.done, r.info))
                    else:
                        out.append(None)
                conn.send(("ok", out))
            elif cmd == "get_rng":
                conn.send(("ok", [env.rng.bit_generator.state for env in envs]))
            elif cmd == "set_rng":
                for env, state in zip(envs, payload):
                    env.rng.bit_generator.state = state
                conn.send(("ok", None))
            elif cmd == "close":
                conn.send(("ok", None))
                break
            else:
                raise RuntimeError(f"unknown VecEnv command {cmd!r}")
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            # The parent is gone or the pipe is closed; the crash report
            # has nowhere to go and the worker is exiting anyway.
            pass
    finally:
        conn.close()


class SubprocVecEnv(VecEnv):
    """Envs sharded over subprocess workers, one pipe per worker.

    Env ``i`` behaves identically to ``SerialVecEnv``'s env ``i`` — the
    per-env RNG stream depends only on ``(spec.seed, i)``, never on the
    worker layout.  The spec is pickled eagerly in ``__init__`` so an
    unpicklable spec fails here, in the parent, with a clear message.
    """

    def __init__(
        self,
        spec: EnvSpec,
        n_envs: int,
        workers: Optional[int] = None,
        timeout: float = 60.0,
        start_method: Optional[str] = None,
    ):
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.spec = spec.validate_picklable()
        self.n_envs = int(n_envs)
        self.timeout = float(timeout)
        n_workers = min(int(workers) if workers else self.n_envs, self.n_envs)
        if n_workers <= 0:
            raise ValueError("workers must be positive")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._spec_bytes = pickle.dumps(spec)
        self._chunks = [
            chunk.tolist()
            for chunk in np.array_split(np.arange(self.n_envs), n_workers)
        ]
        self._conns: list = [None] * n_workers
        self._procs: list = [None] * n_workers
        self._closed = False
        for w in range(n_workers):
            self._spawn_worker(w)
        dims = [self._recv(w) for w in range(n_workers)]
        self._obs_dim, self._act_dim = dims[0]

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def _spawn_worker(self, w: int) -> None:
        """(Re)launch worker ``w`` serving its assigned env chunk.

        The caller must consume the worker's ``("ready", dims)`` handshake
        with ``_recv(w)`` before issuing commands.
        """
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker,
            args=(child, self._spec_bytes, self._chunks[w]),
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[w] = parent
        self._procs[w] = proc

    def _reap_worker(self, w: int) -> None:
        """Tear down worker ``w`` unconditionally (crashed *or* hung).

        Closes the pipe, escalates terminate -> kill so even a stopped or
        wedged process is reclaimed, and joins it — never raises.
        """
        conn, proc = self._conns[w], self._procs[w]
        try:
            conn.close()
        except OSError:
            pass
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        if proc.is_alive():
            # SIGTERM is ignorable (and stays pending on a SIGSTOPped
            # child); SIGKILL is not.
            proc.kill()
            proc.join(timeout=2.0)

    def _crash(self, w: int, reason: str, message: str) -> WorkerCrashError:
        """Build a :class:`WorkerCrashError`, emitting a telemetry event.

        The structured ``worker_crash`` record (worker index, pid, exit
        code, env assignment, reason) makes a degraded run diagnosable
        post-hoc even when the raised exception itself is swallowed by a
        retry layer further up the stack.
        """
        tel = get_telemetry()
        if tel.enabled:
            proc = self._procs[w]
            tel.on_worker_crash(
                worker=w,
                pid=proc.pid,
                exitcode=proc.exitcode,
                envs=list(self._chunks[w]),
                reason=reason,
                message=message.splitlines()[0] if message else "",
            )
        return WorkerCrashError(message)

    def _recv(self, w: int):
        """Receive one message from worker ``w``; crash-aware.

        Polls in short increments so a worker that died without writing
        surfaces as :class:`WorkerCrashError` quickly, and any worker
        raises the error within ``timeout`` seconds rather than hanging.
        """
        conn, proc = self._conns[w], self._procs[w]
        deadline = time.monotonic() + self.timeout
        try:
            while not conn.poll(0.05):
                if not proc.is_alive() and not conn.poll(0.0):
                    raise self._crash(
                        w,
                        "died",
                        f"vec-env worker {w} (pid {proc.pid}, envs "
                        f"{self._chunks[w]}) died with exit code {proc.exitcode}",
                    )
                if time.monotonic() > deadline:
                    raise self._crash(
                        w,
                        "unresponsive",
                        f"vec-env worker {w} (pid {proc.pid}) unresponsive for "
                        f"{self.timeout:.0f}s",
                    )
            tag, payload = conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
            # A SIGKILLed worker shows up as a reset/closed pipe.
            raise self._crash(
                w,
                "pipe_closed",
                f"vec-env worker {w} (pid {proc.pid}) closed its pipe "
                f"unexpectedly (exit code {proc.exitcode})",
            ) from None
        if tag == "error":
            raise self._crash(
                w, "remote_exception", f"vec-env worker {w} raised:\n{payload}"
            )
        return payload

    def _send(self, w: int, cmd: str, payload=None) -> None:
        try:
            self._conns[w].send((cmd, payload))
        except (BrokenPipeError, OSError) as exc:
            proc = self._procs[w]
            raise self._crash(
                w,
                "pipe_broken",
                f"vec-env worker {w} (pid {proc.pid}) pipe is broken "
                f"(exit code {proc.exitcode})",
            ) from exc

    def _broadcast(self, cmd: str, payloads=None):
        """Send to every worker first, then collect — workers overlap."""
        for w in range(self.n_workers):
            self._send(w, cmd, None if payloads is None else payloads[w])
        return [self._recv(w) for w in range(self.n_workers)]

    def reset(self) -> np.ndarray:
        replies = self._broadcast("reset")
        return np.stack([obs for chunk in replies for obs in chunk])

    def step(self, actions, active=None):
        actions, active = self._check_actions(actions, active)
        payloads = [
            (actions[chunk], active[chunk]) for chunk in self._chunks
        ]
        replies = self._broadcast("step", payloads)
        obs, rewards, dones, infos = self._empty_step()
        for chunk, reply in zip(self._chunks, replies):
            for i, row in zip(chunk, reply):
                if row is None:
                    continue
                obs[i], rewards[i], dones[i], infos[i] = row
        return obs, rewards, dones, infos

    def get_rng_states(self) -> List[dict]:
        replies = self._broadcast("get_rng")
        return [state for chunk in replies for state in chunk]

    def set_rng_states(self, states) -> None:
        states = list(states)
        if len(states) != self.n_envs:
            raise ValueError(f"expected {self.n_envs} RNG states, got {len(states)}")
        payloads = [[states[i] for i in chunk] for chunk in self._chunks]
        self._broadcast("set_rng", payloads)

    def close(self) -> None:
        """Shut every worker down; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
        for conn, proc in zip(self._conns, self._procs):
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            conn.close()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                # terminate() can be ignored (masked SIGTERM, stopped or
                # wedged worker); kill() cannot — without this fallback a
                # chaos-killed run leaks zombie workers.
                proc.kill()
                proc.join(timeout=2.0)


def make_vec_env(
    spec: EnvSpec,
    n_envs: int,
    workers: int = 0,
    timeout: float = 60.0,
    supervise: bool = False,
    supervisor=None,
) -> VecEnv:
    """Build the right backend: ``workers == 0`` => serial, else subproc.

    ``supervise=True`` (subprocess backend only) wraps the workers in
    :class:`repro.resilience.SupervisedVecEnv`: crashed or hung workers
    are respawned, resynced and the in-flight command replayed, within
    the restart budget of ``supervisor`` (a
    :class:`repro.resilience.SupervisorConfig`).
    """
    if workers and workers > 0:
        if supervise or supervisor is not None:
            # Imported lazily: repro.resilience sits above repro.parallel.
            from repro.resilience.supervisor import SupervisedVecEnv

            return SupervisedVecEnv(
                spec, n_envs, workers=workers, timeout=timeout,
                supervisor=supervisor,
            )
        return SubprocVecEnv(spec, n_envs, workers=workers, timeout=timeout)
    return SerialVecEnv(spec, n_envs)
