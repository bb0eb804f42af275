import pytest

from cqbench.load import LoopResult
from cqbench.metrics import CounterDelta, RunData, end_to_end, round_table
from cqbench.recal import Step


def _snap(hits, fills, fill_seconds):
    return {
        "counters": {"cache.hits": hits},
        "histograms": {"server.fill_seconds": {"count": fills, "sum": fill_seconds}},
    }


def test_counter_delta_sums_only_the_measured_windows():
    delta = CounterDelta()
    # Two traced windows with untraced traffic between them.
    delta.add(_snap(10, 1, 0.5), _snap(40, 3, 1.5))
    delta.add(_snap(100, 10, 4.0), _snap(130, 11, 4.25))
    assert delta.counter("cache.hits") == 60
    assert delta.histogram("server.fill_seconds") == (3, pytest.approx(1.25))
    assert delta.counter("never.seen") == 0.0
    assert delta.histogram("never.seen") == (0.0, 0.0)


def test_counter_delta_treats_a_new_series_as_starting_at_zero():
    delta = CounterDelta()
    delta.add({}, _snap(5, 2, 0.1))
    assert delta.counter("cache.hits") == 5
    assert delta.histogram("server.fill_seconds") == (2, pytest.approx(0.1))


def _round(latencies, pulses_per_request=32):
    result = LoopResult()
    for i, latency in enumerate(latencies):
        result.latencies.append(latency)
        result.completions.append((0.1 * (i + 1), pulses_per_request))
        result.pulses += pulses_per_request
    result.elapsed = 0.1 * len(latencies)
    return result


def test_round_table_and_pooled_window():
    rounds = [
        _round([0.001] * 99 + [0.010]),
        _round([0.002] * 99 + [0.020]),
        _round([0.050] * 100),
    ]
    data = RunData(
        setup={"setup_s": [1.0, 3.0, 2.0]},
        rounds=rounds,
        steps=[],
        compactions=[],
        server_refreshes=[],
        rss_kib=1024,
        raw_bytes=300,
        record_lengths=[50, 50],
        served_mse=0.0,
    )
    with pytest.raises(ValueError):  # no writer step to time
        end_to_end(data)
    table = round_table(rounds)
    assert [row["requests"] for row in table] == [100, 100, 100]
    assert [row["pulses_per_s"] for row in table] == pytest.approx([320.0] * 3)
    # p99 of 99 x a and one b: rank 98.01 -> a + 0.01 (b - a).
    assert table[0]["p99_ms"] == pytest.approx(1.0 + 0.01 * 9.0)
    assert table[1]["p90_ms"] == pytest.approx(2.0)
    assert data.window.pulses == 9600
    assert data.window.elapsed == pytest.approx(30.0)


def test_end_to_end_takes_each_read_metric_from_the_median_round():
    step = Step(number=1, keys=[], started=0.0, late_s=0.0, compile_s=0.0, put_s=0.0,
                commit_s=0.004, adopt_s=0.0, server_refresh_s=0.0, recal_s=0.02,
                commit_bytes=0, shard_files=1)
    data = RunData(
        setup={"setup_s": [1.0, 3.0, 2.0]},
        # The third round stalled (the machine slowed down): outvoted.
        rounds=[_round([0.001] * 10), _round([0.003] * 10), _round([0.050] * 5)],
        steps=[step],
        compactions=[],
        server_refreshes=[],
        rss_kib=2048,
        raw_bytes=300,
        record_lengths=[50, 50],
        served_mse=1e-6,
    )
    e2e = end_to_end(data)
    assert e2e["setup_s"] == 2.0
    assert e2e["fetch_p50_ms"] == pytest.approx(3.0)
    assert e2e["fetch_p90_ms"] == pytest.approx(3.0)
    assert e2e["pulses_per_s"] == pytest.approx(320.0)
    assert e2e["server_rss_mb"] == 2.0
    assert e2e["compression_ratio"] == 3.0
    assert e2e["commit_p50_ms"] == pytest.approx(4.0)
    assert e2e["recal_p50_ms"] == pytest.approx(20.0)
