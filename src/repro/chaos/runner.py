"""The chaos/soak runner: seeded fault workloads over the live stack.

One :func:`run_chaos` call is four phases over a single store:

1. **Threaded.**  Worker threads hammer a
   :class:`~repro.store.PulseServer` with a seeded mix of ``fetch`` and
   ``fetch_batch`` while the :class:`~repro.chaos.faults.FaultPlan`
   injects truncations, bit flips, transient map failures, and slow
   reads, and a seeded preemption hook jitters the yield points around
   lock acquisitions.  Every successful read is checked bit-identical
   against the scalar oracle; every failure must be a typed
   :class:`~repro.errors.ReproError`.
2. **Networked.**  The same faulty store goes behind a real CQN1
   socket (:func:`~repro.serve_net.server.serve_in_thread`, small
   ``max_inflight`` so overload shedding runs too) and client threads
   repeat the exercise over the wire, mixing in requests for keys the
   store does not hold.
3. **Recovery.**  Injection pauses and every key is read once more --
   a store that took faults must still serve its whole catalog
   bit-identically.
4. **Write storm** (``write_commits > 0``).  A second copy of the
   store goes writable: a :class:`~repro.store.StoreWriter` commits
   seeded recalibrations (puts, deletes, re-adds) while reader threads
   fetch and periodically adopt new generations via
   :meth:`~repro.store.PulseServer.refresh`.  ``crash_commit`` ticks
   abort the commit protocol at a seeded
   :data:`~repro.store.COMMIT_HOOK_POINTS` yield point and
   ``torn_write`` ticks truncate the tail of a just-published
   generation manifest; after either, the directory must reopen as
   exactly the previous or the new generation -- never a hybrid --
   and a resynced writer heals it.  Served waveforms must match *some*
   durably committed version (snapshot consistency), and the storm
   ends with a compaction, a full :func:`~repro.store.verify_store`
   scrub, and a newest-version catalog sweep.

Counter laws are checked on every worker iteration and once after each
phase quiesces; see :class:`~repro.chaos.invariants.InvariantChecker`
for the exact invariants.  The returned :class:`ChaosReport` is
JSON-able; ``report.ok`` is the CI gate.
"""

from __future__ import annotations

import pathlib
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.faults import WRITE_FAULT_KINDS, FaultPlan, FaultyStore
from repro.chaos.invariants import InvariantChecker
from repro.compression.pipeline import decompress_waveform
from repro.core.compiler import CompaqtCompiler
from repro.errors import ChaosError, StoreError
from repro.perf.compression_bench import resolve_device
from repro.pulses.waveform import Waveform
from repro.serve_net.client import PulseClient
from repro.serve_net.server import serve_in_thread
from repro.store import PulseServer, StoreWriter, open_store, save_store
from repro.store.hooks import preempt_hook, set_preempt_hook
from repro.store.sharded import ShardedStore, list_generation_manifests
from repro.store.verify import verify_store
from repro.store.writable import COMMIT_HOOK_POINTS

__all__ = ["ChaosReport", "run_chaos"]

_Key = Tuple[str, Tuple[int, ...]]

CHAOS_SCHEMA = "compaqt-chaos-soak/v3"


@dataclass
class ChaosReport:
    """The JSON-able outcome of one chaos/soak run."""

    schema: str
    device: str
    seed: int
    threads: int
    ops_per_thread: int
    duration_s: float
    faults_injected: Dict[str, int]
    requests_threaded: int
    requests_net: int
    typed_errors: int
    overloads: int
    untyped_errors: int
    identity_checks: int
    invariant_checks: int
    recovery_reads: int
    violations: List[str] = field(default_factory=list)
    server_stats: Dict = field(default_factory=dict)
    net_stats: Dict = field(default_factory=dict)
    write_commits: int = 0
    commits_done: int = 0
    requests_rw: int = 0
    rw_generation: int = 0
    rw_stats: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The CI gate: no violation, no untyped escape."""
        return not self.violations and self.untyped_errors == 0

    def as_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "device": self.device,
            "seed": self.seed,
            "threads": self.threads,
            "ops_per_thread": self.ops_per_thread,
            "duration_s": self.duration_s,
            "faults_injected": dict(self.faults_injected),
            "requests_threaded": self.requests_threaded,
            "requests_net": self.requests_net,
            "typed_errors": self.typed_errors,
            "overloads": self.overloads,
            "untyped_errors": self.untyped_errors,
            "identity_checks": self.identity_checks,
            "invariant_checks": self.invariant_checks,
            "recovery_reads": self.recovery_reads,
            "violations": list(self.violations),
            "server_stats": self.server_stats,
            "net_stats": self.net_stats,
            "write_commits": self.write_commits,
            "commits_done": self.commits_done,
            "requests_rw": self.requests_rw,
            "rw_generation": self.rw_generation,
            "rw_stats": self.rw_stats,
            "ok": self.ok,
        }


def _build_oracle(store) -> Dict[_Key, np.ndarray]:
    """Scalar-path reference samples for every key, off the clean store."""
    return {
        key: decompress_waveform(store.read_record(*key)).samples
        for key in store.keys()
    }


def _seeded_preempt(seed: int):
    """A deterministic-ish jitter hook for the stack's yield points.

    Every Nth visit to a yield point sleeps a few hundred microseconds,
    widening the race windows around lock acquisitions; the rest cost a
    counter bump.  N and the sleep come from ``seed``.
    """
    rng = random.Random(seed ^ 0x5EED)
    stride = 5 + rng.randrange(7)
    delay = 0.0002 + rng.random() * 0.0006
    counter = [0]
    lock = threading.Lock()

    def hook(point: str) -> None:
        with lock:
            counter[0] += 1
            fire = counter[0] % stride == 0
        if fire:
            time.sleep(delay)

    return hook


def _threaded_phase(
    server: PulseServer,
    keys: List[_Key],
    checker: InvariantChecker,
    seed: int,
    threads: int,
    ops_per_thread: int,
    batch_size: int,
) -> int:
    """Seeded fetch/fetch_batch storm; returns requests issued."""
    requests = [0] * threads

    def worker(worker_id: int) -> None:
        rng = random.Random((seed << 8) ^ worker_id)
        for _ in range(ops_per_thread):
            if rng.random() < 0.35:
                batch = [
                    keys[rng.randrange(len(keys))]
                    for _ in range(1 + rng.randrange(batch_size))
                ]
                requests[worker_id] += len(batch)
                try:
                    waveforms = server.fetch_batch(batch)
                except Exception as exc:
                    checker.note_error(tuple(batch[:2]), exc)
                else:
                    for key, waveform in zip(batch, waveforms):
                        checker.check_identity(key, waveform)
            else:
                key = keys[rng.randrange(len(keys))]
                requests[worker_id] += 1
                try:
                    waveform = server.fetch(*key)
                except Exception as exc:
                    checker.note_error(key, exc)
                else:
                    checker.check_identity(key, waveform)
            checker.check_cache(server.cache.stats())

    workers = [
        threading.Thread(target=worker, args=(i,), name=f"chaos-{i}")
        for i in range(threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return sum(requests)


def _net_phase(
    server: PulseServer,
    keys: List[_Key],
    checker: InvariantChecker,
    seed: int,
    clients: int,
    ops_per_client: int,
    batch_size: int,
    trace_sample_rate: float = 0.0,
) -> Tuple[int, Dict]:
    """The same storm over a real CQN1 socket; returns (requests, stats)."""
    bogus: _Key = ("chaos-no-such-gate", (0,))
    requests = [0] * clients

    with serve_in_thread(
        server,
        max_inflight=8,
        frame_timeout=5.0,
        trace_sample_rate=trace_sample_rate,
    ) as handle:
        host, port = handle.address

        def client_worker(client_id: int) -> None:
            rng = random.Random((seed << 16) ^ client_id)
            with PulseClient(host, port) as client:
                for _ in range(ops_per_client):
                    roll = rng.random()
                    try:
                        if roll < 0.25:
                            batch = [
                                keys[rng.randrange(len(keys))]
                                for _ in range(1 + rng.randrange(batch_size))
                            ]
                            if roll < 0.08:
                                # Mixed valid/invalid: the bad key must
                                # fail typed without poisoning the rest.
                                batch.append(bogus)
                            requests[client_id] += len(batch)
                            for key, waveform in zip(
                                batch, client.fetch_batch(batch)
                            ):
                                checker.check_identity(key, waveform)
                        else:
                            key = keys[rng.randrange(len(keys))]
                            requests[client_id] += 1
                            checker.check_identity(key, client.fetch(*key))
                    except Exception as exc:
                        checker.note_error("net", exc)

        workers = [
            threading.Thread(
                target=client_worker, args=(i,), name=f"chaos-client-{i}"
            )
            for i in range(clients)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        stats = handle.stats()
    checker.check_net(stats)
    return sum(requests), stats


class _VersionedOracle:
    """Committed-version history per key, shared writer -> readers.

    The write storm appends a key's reconstructed samples when the
    version is *staged* (a reader may adopt it the instant its
    manifest lands); readers assert each served waveform matches some
    recorded version (snapshot consistency allows serving any of
    them, never a hybrid).
    """

    def __init__(self, base: Dict[_Key, np.ndarray]) -> None:
        self._lock = threading.Lock()
        self._versions: Dict[_Key, List[np.ndarray]] = {
            key: [samples] for key, samples in base.items()
        }

    def record(self, key: _Key, samples: np.ndarray) -> None:
        with self._lock:
            self._versions.setdefault(key, []).append(samples)

    def candidates(self, key: _Key) -> List[np.ndarray]:
        with self._lock:
            return list(self._versions.get(key, ()))


class _CrashAt:
    """Context manager: raise ChaosError at one named commit hook point.

    Chains to whatever preemption hook is already installed (the seeded
    jitter), so reader-side yield points keep their behavior while one
    writer-side point becomes a simulated crash.
    """

    def __init__(self, point: str) -> None:
        self.point = point
        self._previous = None

    def __enter__(self) -> "_CrashAt":
        previous = set_preempt_hook(None)
        self._previous = previous

        def hook(point: str) -> None:
            if previous is not None:
                previous(point)
            if point == self.point:
                raise ChaosError(f"chaos: injected crash at {point}")

        set_preempt_hook(hook)
        return self

    def __exit__(self, *exc_info) -> None:
        set_preempt_hook(self._previous)


def _perturb(waveform: Waveform, rng: random.Random) -> Waveform:
    """A deterministic 'recalibration': rolled, rescaled samples."""
    samples = np.roll(waveform.samples, 1 + rng.randrange(5))
    samples = samples * (0.70 + 0.25 * rng.random())
    return Waveform(
        name=waveform.name,
        samples=samples,
        dt=waveform.dt,
        gate=waveform.gate,
        qubits=waveform.qubits,
    )


def _write_phase(
    rw_dir: pathlib.Path,
    compiled,
    base_oracle: Dict[_Key, np.ndarray],
    checker: InvariantChecker,
    seed: int,
    threads: int,
    batch_size: int,
    write_commits: int,
    write_plan: FaultPlan,
    n_shards: int,
) -> Tuple[int, int, Dict[str, int], int, Dict]:
    """Mixed read/write storm with injected commit-protocol faults.

    A writer loop stages seeded recalibrations (puts, deletes, re-adds)
    and commits them while reader threads fetch and periodically adopt
    new generations.  ``crash_commit`` ticks abort the protocol at a
    seeded hook point; ``torn_write`` ticks truncate the just-published
    manifest's tail.  After every fault the directory must reopen as
    exactly the previous or the new generation -- then the storm heals
    by resyncing a fresh writer and repeating the commit.  Ends with a
    compaction, a full scrub, and a newest-version catalog sweep.

    Returns (reader requests, commits done, fault counts, final
    generation, server stats).
    """
    rw_store = save_store(compiled, rw_dir, n_shards=n_shards)
    keys = list(base_oracle)
    oracle = _VersionedOracle(base_oracle)
    current_wf: Dict[_Key, Waveform] = dict(
        zip(keys, rw_store.decode_many(keys))
    )
    rw_store.close()
    deleted: set = set()
    compiler = CompaqtCompiler()
    stop = threading.Event()
    requests = [0] * threads
    faults: Dict[str, int] = {kind: 0 for kind in WRITE_FAULT_KINDS}

    server = PulseServer(open_store(rw_dir), cache_capacity=len(keys))

    def reader(worker_id: int) -> None:
        rng = random.Random((seed << 20) ^ worker_id)
        ops = 0
        while not stop.is_set():
            ops += 1
            if ops % 5 == 0:
                try:
                    server.refresh()
                except Exception as exc:
                    checker.note_error("rw-refresh", exc)
            try:
                if rng.random() < 0.3:
                    batch = [
                        keys[rng.randrange(len(keys))]
                        for _ in range(1 + rng.randrange(batch_size))
                    ]
                    requests[worker_id] += len(batch)
                    for key, waveform in zip(batch, server.fetch_batch(batch)):
                        checker.check_versioned_identity(
                            key, waveform, oracle.candidates(key)
                        )
                else:
                    key = keys[rng.randrange(len(keys))]
                    requests[worker_id] += 1
                    checker.check_versioned_identity(
                        key, server.fetch(*key), oracle.candidates(key)
                    )
            except Exception as exc:
                # Deleted keys legitimately fail typed after adoption.
                checker.note_error("rw-read", exc)
            checker.check_cache(server.cache.stats())

    readers = [
        threading.Thread(target=reader, args=(i,), name=f"chaos-rw-{i}")
        for i in range(threads)
    ]
    for thread in readers:
        thread.start()

    def stage(writer: StoreWriter, tick: int) -> List[Tuple[_Key, object, str]]:
        """Seeded mutations for one commit: puts, re-adds, deletes.

        Every staged put is recorded in the oracle *here*, before the
        commit is attempted: a reader may adopt the new generation the
        instant the manifest lands, ahead of the writer loop learning
        the commit's fate.  A candidate whose commit then aborts is
        slack in the check (it is never servable), not a false pass.
        """
        rng = write_plan.rng_for(tick ^ 0xA11CE)
        staged: List[Tuple[_Key, object, str]] = []
        live = [key for key in keys if key not in deleted]
        for _ in range(1 + rng.randrange(3)):
            key = live[rng.randrange(len(live))]
            result = compiler.compile_waveform(_perturb(current_wf[key], rng))
            writer.put(key[0], key[1], result)
            oracle.record(key, result.reconstructed.samples)
            staged.append((key, result, "put"))
        if deleted and rng.random() < 0.6:
            key = sorted(deleted)[rng.randrange(len(deleted))]
            result = compiler.compile_waveform(_perturb(current_wf[key], rng))
            writer.put(key[0], key[1], result)
            oracle.record(key, result.reconstructed.samples)
            staged.append((key, result, "readd"))
        staged_keys = {entry[0] for entry in staged}
        victims = [key for key in live if key not in staged_keys]
        if victims and len(deleted) < max(1, len(keys) // 4) and rng.random() < 0.4:
            key = victims[rng.randrange(len(victims))]
            writer.delete(*key)
            staged.append((key, None, "delete"))
        return staged

    def apply_committed(staged: List[Tuple[_Key, object, str]]) -> None:
        """Advance the confirmed-durable state the final sweep checks."""
        for key, result, action in staged:
            if action == "delete":
                deleted.add(key)
            else:
                deleted.discard(key)
                current_wf[key] = result.reconstructed

    commits_done = 0
    writer = StoreWriter(rw_dir)
    try:
        for tick in range(write_commits):
            kind = write_plan.fault_for(tick)
            rng = write_plan.rng_for(tick)
            if kind == "crash_commit":
                faults["crash_commit"] += 1
                previous_generation = writer.generation
                staged = stage(writer, tick)
                point = COMMIT_HOOK_POINTS[
                    rng.randrange(len(COMMIT_HOOK_POINTS))
                ]
                crashed = False
                try:
                    with _CrashAt(point):
                        writer.commit()
                except ChaosError:
                    crashed = True
                if not crashed:
                    checker.violations.append(
                        f"write storm: crash hook at {point!r} never fired"
                    )
                # Recovery-on-open: the directory must reopen as exactly
                # the previous or the new generation, and a fresh writer
                # must resync onto whichever survived.
                writer.close()
                try:
                    reopened = ShardedStore.open(rw_dir)
                except StoreError as exc:
                    checker.violations.append(
                        f"write storm: store unopenable after crash at "
                        f"{point!r}: {exc}"
                    )
                    writer = StoreWriter(rw_dir)  # may raise: harness bug
                    continue
                generation = reopened.generation
                reopened.close()
                if generation == previous_generation + 1:
                    # The manifest was durable before the abort: the
                    # commit counts.
                    apply_committed(staged)
                    commits_done += 1
                elif generation != previous_generation:
                    checker.violations.append(
                        f"write storm: crash at {point!r} left generation "
                        f"{generation}, expected {previous_generation} or "
                        f"{previous_generation + 1}"
                    )
                writer = StoreWriter(rw_dir)
            elif kind == "torn_write":
                staged = stage(writer, tick)
                previous_generation = writer.generation
                writer.commit()
                apply_committed(staged)
                commits_done += 1
                faults["torn_write"] += 1
                manifests = list_generation_manifests(rw_dir)
                newest = manifests[0][1]
                data = newest.read_bytes()
                newest.write_bytes(data[: -(1 + rng.randrange(64))])
                try:
                    reopened = ShardedStore.open(rw_dir)
                except StoreError as exc:
                    checker.violations.append(
                        f"write storm: store unopenable after torn manifest: "
                        f"{exc}"
                    )
                else:
                    if reopened.generation != previous_generation:
                        checker.violations.append(
                            "write storm: torn newest manifest should fall "
                            f"back to generation {previous_generation}, got "
                            f"{reopened.generation}"
                        )
                    reopened.close()
                # Heal: a resynced writer re-stages the same content and
                # republishes the same generation by rename-over.
                writer.close()
                writer = StoreWriter(rw_dir)
                for key, result, action in staged:
                    if action == "delete":
                        writer.delete(*key)
                    else:
                        writer.put(key[0], key[1], result)
                writer.commit()
            else:
                staged = stage(writer, tick)
                writer.commit()
                apply_committed(staged)
                commits_done += 1

        # End of storm: compact (drops tombstones and superseded
        # bytes), then scrub and sweep.
        writer.compact()
    finally:
        stop.set()
        for thread in readers:
            thread.join()

    try:
        server.refresh()
    except Exception as exc:
        checker.note_error("rw-final-refresh", exc)
        checker.violations.append(
            f"write storm: final refresh failed: {type(exc).__name__}: {exc}"
        )
    final_generation = server.store.generation
    live_keys = set(server.store.keys())
    expected_keys = {key for key in current_wf if key not in deleted}
    if live_keys != expected_keys:
        checker.violations.append(
            f"write storm: post-compaction catalog has {len(live_keys)} "
            f"key(s), expected {len(expected_keys)}"
        )
    for key in sorted(live_keys):
        expected = current_wf.get(key)
        try:
            waveform = server.fetch(*key)
        except Exception as exc:
            checker.note_error(key, exc)
            checker.violations.append(
                f"write storm: post-storm read of {key} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        if expected is None or not (
            waveform.samples.shape == expected.samples.shape
            and np.array_equal(waveform.samples, expected.samples)
        ):
            checker.violations.append(
                f"write storm: {key} diverges from its newest committed "
                "version after compaction"
            )
    rw_stats = server.stats()
    server.close()
    writer.close()

    scrub = verify_store(rw_dir)
    if not scrub.ok:
        checker.violations.append(
            "write storm: post-storm scrub found damage: "
            + (scrub.fatal or "; ".join(
                item for shard in scrub.shards for item in shard.damage
            ))
        )
    return sum(requests), commits_done, faults, final_generation, rw_stats


def run_chaos(
    device_spec: str = "bogota",
    seed: int = 0,
    threads: int = 4,
    ops_per_thread: int = 150,
    net_clients: int = 3,
    n_shards: int = 4,
    batch_size: int = 6,
    plan: Optional[FaultPlan] = None,
    store_dir: Optional[pathlib.Path] = None,
    trace_sample_rate: float = 0.0,
    write_commits: int = 12,
    write_plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """Run the full chaos/soak harness; never raises on *found* faults.

    Violations land in the report (``report.ok``); only harness misuse
    (bad arguments, unbuildable device) raises.  ``trace_sample_rate``
    turns on request tracing in the networked phase (1.0 = trace every
    fetch) -- the chaos CI job runs at full sampling so the tracing
    path itself soaks under faults.  ``write_commits`` sizes the
    write-storm phase (0 skips it); ``write_plan`` schedules its
    commit-protocol faults and defaults to one fault every third
    commit, cycling :data:`~repro.chaos.faults.WRITE_FAULT_KINDS`.
    """
    if threads < 1 or ops_per_thread < 1 or net_clients < 0 or batch_size < 1:
        raise ChaosError("threads, ops_per_thread and batch_size must be >= 1")
    if write_commits < 0:
        raise ChaosError(f"write_commits must be >= 0, got {write_commits}")
    plan = plan if plan is not None else FaultPlan(seed=seed)
    if write_plan is None:
        write_plan = FaultPlan(seed=seed, period=3, kinds=WRITE_FAULT_KINDS)
    started = time.perf_counter()

    with tempfile.TemporaryDirectory(prefix="cqs-chaos-") as tmp:
        root = store_dir if store_dir is not None else pathlib.Path(tmp)
        device = resolve_device(device_spec)
        compiled = CompaqtCompiler().compile_library(device.pulse_library())
        store = save_store(
            compiled, root / f"{device.name}.cqs", n_shards=n_shards
        )
        oracle = _build_oracle(store)
        keys = list(oracle)
        checker = InvariantChecker(oracle)
        faulty = FaultyStore(store, plan)

        with preempt_hook(_seeded_preempt(seed)):
            # Phase 1: threads on the in-process server.  Capacity covers
            # the whole catalog so the single-flight insert-once law is
            # checkable.
            with PulseServer(faulty, cache_capacity=len(keys)) as server:
                requests_threaded = _threaded_phase(
                    server, keys, checker, seed, threads, ops_per_thread,
                    batch_size,
                )
                server_stats = server.stats()
                checker.check_single_flight(server_stats, len(keys))

            # Phase 2: the same faulty store behind a real socket.
            requests_net, net_stats = 0, {}
            if net_clients:
                with PulseServer(faulty, cache_capacity=len(keys)) as net_serving:
                    requests_net, net_stats = _net_phase(
                        net_serving, keys, checker, seed, net_clients,
                        max(1, ops_per_thread // 2), batch_size,
                        trace_sample_rate=trace_sample_rate,
                    )

            # Phase 3: recovery -- injection off, every key must still
            # serve bit-identically.
            recovery_reads = 0
            with faulty.calm():
                with PulseServer(faulty, cache_capacity=len(keys)) as recovery_server:
                    for key in keys:
                        try:
                            waveform = recovery_server.fetch(*key)
                        except Exception as exc:
                            checker.note_error(key, exc)
                            checker.violations.append(
                                f"recovery: post-fault read of {key} failed: "
                                f"{type(exc).__name__}: {exc}"
                            )
                        else:
                            if checker.check_identity(key, waveform):
                                recovery_reads += 1

            # Phase 4: the write storm -- commit-protocol faults over a
            # separate writable copy while readers adopt generations.
            requests_rw, commits_done, rw_generation = 0, 0, 0
            write_faults: Dict[str, int] = {}
            rw_stats: Dict = {}
            if write_commits:
                requests_rw, commits_done, write_faults, rw_generation, \
                    rw_stats = _write_phase(
                        root / f"{device.name}-rw.cqs", compiled, oracle,
                        checker, seed, threads, batch_size, write_commits,
                        write_plan, n_shards,
                    )
        faulty.detach()

    faults_injected = dict(faulty.faults_injected)
    for kind, count in write_faults.items():
        faults_injected[kind] = count

    return ChaosReport(
        schema=CHAOS_SCHEMA,
        device=device.name,
        seed=seed,
        threads=threads,
        ops_per_thread=ops_per_thread,
        duration_s=time.perf_counter() - started,
        faults_injected=faults_injected,
        requests_threaded=requests_threaded,
        requests_net=requests_net,
        typed_errors=checker.typed_errors,
        overloads=checker.overloads,
        untyped_errors=checker.untyped_errors,
        identity_checks=checker.identity_checks,
        invariant_checks=checker.checks,
        recovery_reads=recovery_reads,
        violations=list(checker.violations),
        server_stats=server_stats,
        net_stats=net_stats,
        write_commits=write_commits,
        commits_done=commits_done,
        requests_rw=requests_rw,
        rw_generation=rw_generation,
        rw_stats=rw_stats,
    )
