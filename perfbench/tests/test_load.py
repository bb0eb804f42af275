import time

import pytest

from repro.errors import ProtocolError, ServerOverloadedError, StoreError

from cqbench.load import Ledger, closed_loop, failure_reason, fetch_once, open_loop


def test_failure_reasons():
    assert failure_reason(ServerOverloadedError("shed")) == "overload"
    assert failure_reason(ProtocolError("timed out waiting for 4 of 4 reply bytes")) == "timeout"
    assert failure_reason(TimeoutError()) == "timeout"
    assert failure_reason(StoreError("no pulse for gate 'q'")) == "error"
    assert failure_reason(ProtocolError("server closed the connection")) == "error"
    assert failure_reason(ConnectionResetError()) == "connection"
    with pytest.raises(TypeError):
        failure_reason(ValueError("a benchmark bug, not a failed operation"))


def test_fetch_once_counts_and_remembers_payloads():
    ledger, seen = Ledger(), {}
    keys = [("x", (0,)), ("sx", (1,))]
    assert fetch_once(lambda batch: [f"wf-{k[0]}" for k in batch], keys, "fetch", ledger, seen) == 2
    assert seen == {("x", (0,)): "wf-x", ("sx", (1,)): "wf-sx"}

    def shed(batch):
        raise ServerOverloadedError("shed")

    assert fetch_once(shed, keys, "fetch", ledger, seen) == 0
    assert ledger.attempted == {"fetch": 2}
    assert ledger.failed == {("fetch", "overload"): 1}
    assert (ledger.total_attempted, ledger.total_failed) == (2, 1)


def test_ledger_merge_and_reasons():
    ledger = Ledger()
    ledger.attempt("fetch", 10)
    ledger.fail("fetch", "mismatch", 2)
    ledger.merge({"commit": 5, "fetch": 1}, {("commit", "error"): 1, ("probe", "mismatch"): 1})
    assert ledger.total_attempted == 16
    assert ledger.total_failed == 4
    assert ledger.failures("mismatch") == 3
    assert ledger.as_dict()["failed"] == {
        "fetch/mismatch": 2,
        "commit/error": 1,
        "probe/mismatch": 1,
    }


def test_closed_loop_accounts_every_attempt():
    calls = {"n": 0}

    def flaky(batch):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise StoreError("typed failure")
        return list(batch)

    ledger, seen = Ledger(), {}
    out = closed_loop([flaky, flaky], [[[("x", (0,))]], [[("y", (1,))]]], 0.05, ledger, seen)
    attempted, failed = ledger.attempted["fetch"], ledger.failed[("fetch", "error")]
    assert attempted == calls["n"] > 0
    assert failed == calls["n"] // 3
    assert len(out.latencies) == attempted - failed == out.pulses
    assert out.elapsed > 0 and out.pulses_per_s > 0


def test_open_loop_times_from_the_scheduled_send():
    def slow(batch):
        time.sleep(0.02)
        return list(batch)

    ledger = Ledger()
    # Three sends due at once: each waits for the one before it.
    out = open_loop(slow, [[("x", (0,))]], [0.0, 0.0, 0.0], ledger, {})
    assert ledger.attempted["fetch"] == 3
    assert out.latencies == sorted(out.latencies)
    assert out.latencies[2] >= 0.06
    assert out.late[2] >= 0.04
