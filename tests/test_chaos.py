"""Tests for the fault-injection chaos/soak harness.

Two kinds of coverage: the harness machinery itself (deterministic
fault schedules, each fault kind surfacing as its typed error, the
invariant checker actually catching violations) and the end-to-end
soak (`run_chaos` / `repro chaos --quick`) staying green on the
current stack.
"""

import asyncio

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    WRITE_FAULT_KINDS,
    ChaosReport,
    FaultPlan,
    FaultyStore,
    InvariantChecker,
    run_chaos,
)
from repro.cli import main
from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.errors import (
    ChaosError,
    CompressionError,
    ReproError,
    StoreError,
)
from repro.perf.serving_bench import run_serving_soak, soak_gates_ok
from repro.serve_net import NetPulseServer
from repro.store import PulseServer, save_store
from repro.store.hooks import preempt, preempt_hook, set_preempt_hook


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture()
def store(compiled, tmp_path):
    return save_store(compiled, tmp_path / "chaos.cqs", n_shards=3)


@pytest.fixture()
def reference(store):
    return {
        key: decompress_waveform(store.read_record(*key)).samples
        for key in store.keys()
    }


class TestFaultPlan:
    def test_schedule_is_deterministic_and_periodic(self):
        plan = FaultPlan(seed=5, period=3, kinds=("truncate", "bitflip"))
        schedule = [plan.fault_for(t) for t in range(12)]
        assert schedule == [plan.fault_for(t) for t in range(12)]
        assert schedule == [
            None, None, "truncate",
            None, None, "bitflip",
            None, None, "truncate",
            None, None, "bitflip",
        ]

    def test_rng_streams_are_seeded_per_tick(self):
        plan = FaultPlan(seed=7)
        assert plan.rng_for(3).random() == plan.rng_for(3).random()
        assert plan.rng_for(3).random() != plan.rng_for(4).random()

    def test_validation(self):
        with pytest.raises(StoreError):
            FaultPlan(period=0)
        with pytest.raises(StoreError):
            FaultPlan(kinds=())
        with pytest.raises(StoreError):
            FaultPlan(kinds=("nonsense",))
        with pytest.raises(StoreError):
            FaultPlan(bitflip_target="header")
        with pytest.raises(StoreError):
            FaultPlan(slow_io_delay=-1.0)

    def test_write_kinds_are_valid_plan_kinds(self):
        plan = FaultPlan(seed=1, period=2, kinds=WRITE_FAULT_KINDS)
        schedule = [plan.fault_for(t) for t in range(8)]
        assert schedule == [
            None, "crash_commit",
            None, "torn_write",
            None, "crash_commit",
            None, "torn_write",
        ]


class TestFaultyStore:
    def _drain_faults(self, faulty, keys, kind):
        """Read until the plan injects `kind` once; return the exception."""
        for _ in range(4 * faulty.plan.period):
            try:
                faulty.decode_many(keys)
            except ReproError as exc:
                return exc
        raise AssertionError(f"{kind} never injected")

    def test_truncate_surfaces_as_compression_error(self, store):
        faulty = FaultyStore(store, FaultPlan(seed=1, period=2, kinds=("truncate",)))
        exc = self._drain_faults(faulty, store.keys()[:3], "truncate")
        assert isinstance(exc, CompressionError)
        assert faulty.faults_injected["truncate"] >= 1

    def test_magic_bitflip_surfaces_as_compression_error(self, store):
        faulty = FaultyStore(store, FaultPlan(seed=2, period=2, kinds=("bitflip",)))
        exc = self._drain_faults(faulty, store.keys()[:3], "bitflip")
        assert isinstance(exc, CompressionError)

    def test_map_oserror_is_typed_and_transient(self, store):
        faulty = FaultyStore(
            store, FaultPlan(seed=3, period=1, kinds=("map_oserror",))
        )
        keys = store.keys()[:2]
        with pytest.raises(StoreError, match="cannot map shard file"):
            faulty.decode_many(keys)
        # Transient: with injection off, the very next read remaps.
        with faulty.calm():
            assert len(faulty.decode_many(keys)) == len(keys)

    def test_slow_io_delays_but_serves_correctly(self, store, reference):
        faulty = FaultyStore(
            store,
            FaultPlan(seed=4, period=1, kinds=("slow_io",), slow_io_delay=0.01),
        )
        keys = store.keys()[:2]
        waveforms = faulty.decode_many(keys)
        for key, waveform in zip(keys, waveforms):
            assert np.array_equal(waveform.samples, reference[key])
        assert faulty.faults_injected["slow_io"] == 1

    def test_clean_ticks_are_bit_identical(self, store, reference):
        faulty = FaultyStore(store, FaultPlan(seed=0, period=1000))
        for key in store.keys():
            (waveform,) = faulty.decode_many([key])
            assert np.array_equal(waveform.samples, reference[key])

    def test_calm_suspends_injection(self, store):
        faulty = FaultyStore(store, FaultPlan(seed=0, period=1))
        with faulty.calm():
            for _ in range(5):
                faulty.decode_many(store.keys()[:2])
        assert sum(faulty.faults_injected.values()) == 0

    def test_duck_types_as_a_store(self, store):
        faulty = FaultyStore(store, FaultPlan(period=1000))
        assert faulty.n_shards == store.n_shards
        assert faulty.keys() == store.keys()
        assert len(faulty) == len(store)
        assert store.keys()[0] in faulty
        with PulseServer(faulty, cache_capacity=8) as server:
            server.fetch(*store.keys()[0])

    def test_detach_unhooks_the_pool(self, store):
        faulty = FaultyStore(store, FaultPlan(period=1))
        assert store.io_fault_hook is not None
        faulty.detach()
        assert store.io_fault_hook is None

    def test_rejects_write_fault_kinds(self, store):
        # Write faults target the commit protocol, not the read path; a
        # read-side FaultyStore must refuse a plan that contains them.
        plan = FaultPlan(seed=0, period=2, kinds=("truncate",) + WRITE_FAULT_KINDS)
        with pytest.raises(StoreError, match="write"):
            FaultyStore(store, plan)


class TestPreemptHooks:
    def test_hook_fires_and_restores(self):
        seen = []
        with preempt_hook(seen.append):
            preempt("somewhere")
        preempt("elsewhere")  # no hook installed: must be a no-op
        assert seen == ["somewhere"]

    def test_set_returns_previous(self):
        def hook(point):
            pass

        assert set_preempt_hook(hook) is None
        assert set_preempt_hook(None) is hook

    def test_serving_stack_visits_yield_points(self, store):
        points = []
        with preempt_hook(points.append):
            with PulseServer(store, cache_capacity=8) as server:
                server.fetch(*store.keys()[0])
        assert "server.fill.pre_lock" in points
        assert "server.fill.locked" in points
        assert "cache.load.pre_insert" in points


class TestInvariantChecker:
    def test_identity_divergence_is_flagged(self, store, reference):
        checker = InvariantChecker(reference)
        key = store.keys()[0]
        good = store.decode_record(*key)
        assert checker.check_identity(key, good)
        corrupt = store.decode_record(*store.keys()[1])
        assert not checker.check_identity(key, corrupt)
        with pytest.raises(ChaosError, match="diverges"):
            checker.raise_if_violated()

    def test_counter_law_breakage_is_flagged(self, reference):
        checker = InvariantChecker(reference)
        checker.check_cache(
            {"capacity": 4, "size": 3, "insertions": 9, "evictions": 1}
        )
        with pytest.raises(ChaosError, match="insertions"):
            checker.raise_if_violated()

    def test_untyped_exception_is_a_violation(self, reference):
        checker = InvariantChecker(reference)
        checker.note_error("k", StoreError("fine"))
        assert checker.typed_errors == 1 and not checker.violations
        checker.note_error("k", KeyError("not fine"))
        assert checker.untyped_errors == 1
        with pytest.raises(ChaosError, match="escaped the stack"):
            checker.raise_if_violated()

    def test_net_accounting_law(self, reference):
        checker = InvariantChecker(reference)
        checker.check_net({"fetches": 5, "fetches_ok": 3, "request_errors": 1})
        with pytest.raises(ChaosError, match="fetches"):
            checker.raise_if_violated()

    def test_connection_left_open_is_flagged(self, reference):
        checker = InvariantChecker(reference)
        checker.check_net(
            {"fetches": 4, "fetches_ok": 3, "request_errors": 1,
             "connections_open": 1}
        )
        with pytest.raises(ChaosError, match="still open"):
            checker.raise_if_violated()


class TestRunChaos:
    def test_quick_soak_is_green_and_injects_every_kind(self):
        report = run_chaos(
            device_spec="bogota", seed=0, threads=3, ops_per_thread=60,
            net_clients=2,
        )
        assert isinstance(report, ChaosReport)
        assert report.ok, report.violations
        assert set(report.faults_injected) == (
            set(FAULT_KINDS) | set(WRITE_FAULT_KINDS)
        )
        assert report.typed_errors >= 1
        assert report.untyped_errors == 0
        assert report.identity_checks > 0
        # Phase 1 sizes the cache to the whole catalog, and recovery
        # reads every key once: the two must agree.
        assert report.recovery_reads == report.server_stats["cache"]["capacity"]
        assert report.as_dict()["ok"] is True

    def test_write_storm_counters_and_recovery(self):
        report = run_chaos(
            device_spec="bogota", seed=1, threads=2, ops_per_thread=30,
            net_clients=0, write_commits=8,
            write_plan=FaultPlan(seed=1, period=2, kinds=WRITE_FAULT_KINDS),
        )
        assert report.ok, report.violations
        assert report.write_commits == 8
        # Every tick stages a batch; a crashed commit only counts when
        # the manifest proved durable before the abort.
        assert 1 <= report.commits_done <= 8
        assert report.requests_rw > 0
        assert report.rw_generation >= 1
        assert report.faults_injected["crash_commit"] >= 1
        assert report.faults_injected["torn_write"] >= 1
        assert report.rw_stats["requests"] > 0
        assert report.rw_stats["cache"]["size"] >= 0

    def test_write_commits_zero_skips_the_write_phase(self):
        report = run_chaos(
            device_spec="bogota", seed=0, threads=2, ops_per_thread=30,
            net_clients=0, write_commits=0,
        )
        assert report.ok, report.violations
        assert report.write_commits == 0
        assert report.requests_rw == 0
        assert report.rw_stats == {}
        assert not set(WRITE_FAULT_KINDS) & set(report.faults_injected)

    def test_net_stats_wait_for_the_server_to_see_every_close(
        self, monkeypatch
    ):
        # The server's connection tasks notice each client's close late.
        connection_loop = NetPulseServer._connection_loop

        async def slow_to_notice_eof(self, reader, writer):
            await connection_loop(self, reader, writer)
            await asyncio.sleep(0.3)

        monkeypatch.setattr(
            NetPulseServer, "_connection_loop", slow_to_notice_eof
        )
        report = run_chaos(
            device_spec="bogota", seed=0, threads=2, ops_per_thread=20,
            net_clients=2, write_commits=0,
        )
        assert report.ok, report.violations
        assert report.net_stats["connections_open"] == 0

    def test_validates_arguments(self):
        with pytest.raises(ChaosError):
            run_chaos(threads=0)
        with pytest.raises(ChaosError):
            run_chaos(write_commits=-1)

    def test_soak_payload_and_gates(self):
        payload = run_serving_soak(
            device_specs=("bogota",), seed=1, threads=2, ops_per_thread=30,
            net_clients=0,
        )
        ok, failures = soak_gates_ok(payload)
        assert ok, failures
        assert payload["all_ok"]
        assert payload["entries"][0]["device"] == "ibm_bogota"


class TestChaosCli:
    def test_quick_exits_zero(self, capsys):
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert "ok" in out

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "soak.json"
        code = main(
            [
                "chaos", "--devices", "bogota", "--threads", "2",
                "--ops", "30", "--clients", "0", "--seed", "2",
                "--json", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.is_file()
        import json

        payload = json.loads(out_path.read_text())
        assert payload["all_ok"] is True
