import threading
import types

import pytest

from cqbench import spans as spanlib
from cqbench.metrics import _client_side


def _span(span_id, parent, name, start, end, trace=0, items=1):
    return (span_id, parent, trace, name, start, end, items)


def test_covered_merges_overlaps_and_clips_to_parent():
    # Two overlapping children (parallel fills) count once; a child that
    # outlives its parent is clipped.
    assert spanlib.covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert spanlib.covered([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert spanlib.covered([(8.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert spanlib.covered([(11.0, 12.0)], 0.0, 10.0) == 0.0
    assert spanlib.covered([], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_children():
    parent = _span(1, 0, "serving.fetch_batch", 0.0, 10.0)
    children = [
        _span(2, 1, "cache.lookup", 1.0, 2.0),
        _span(3, 1, "cache.load_many", 3.0, 7.0),
        _span(4, 1, "cache.load_many", 6.0, 8.0),  # overlaps the previous one
    ]
    assert spanlib.self_time(parent, children) == pytest.approx(10.0 - 1.0 - 5.0)
    assert spanlib.self_time(parent, []) == pytest.approx(10.0)


def test_recorder_links_children_and_hands_trace_id_up():
    rec = spanlib.SpanRecorder()
    grandchild = rec.wrapper("grandchild")(lambda: None)

    def encode(trace=0):
        grandchild()

    # Like encode_fetch: the child sees the wire trace id in its kwargs.
    child = rec.wrapper("child", trace_id=lambda args, kwargs: kwargs.get("trace", 0))(encode)

    def fetch(keys):
        child(trace=42)
        return len(keys)

    root = rec.wrapper("root", items=spanlib.count_arg(0))(fetch)
    assert root([1, 2, 3]) == 3
    by_name = {s[3]: s for s in rec.spans}
    assert set(by_name) == {"root", "child", "grandchild"}
    assert by_name["root"][1] == 0
    assert by_name["child"][1] == by_name["root"][0]
    assert by_name["grandchild"][1] == by_name["child"][0]
    assert [by_name[n][2] for n in ("root", "child", "grandchild")] == [42, 42, 42]
    assert by_name["root"][6] == 3


def test_recorder_keeps_threads_apart():
    rec = spanlib.SpanRecorder()
    inner = rec.wrapper("inner")(lambda: None)
    outer = rec.wrapper("outer")(lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    outers = {s[0] for s in rec.spans if s[3] == "outer"}
    inners = [s for s in rec.spans if s[3] == "inner"]
    assert len(outers) == 8 and len(inners) == 8
    assert {s[1] for s in inners} == outers


class _Thing:
    @classmethod
    def make(cls):
        return "made"

    def work(self):
        return "worked"


def test_patches_restore_module_class_and_instance_attributes():
    module = types.SimpleNamespace(fn=lambda: "fn")
    thing = _Thing()
    rec = spanlib.SpanRecorder()
    patches = spanlib.Patches()
    patches.wrap(module, "fn", rec.wrapper("fn"))
    patches.wrap(_Thing, "make", rec.wrapper("make"))
    patches.wrap(thing, "work", rec.wrapper("work"))
    assert patches.active
    assert (module.fn(), _Thing.make(), thing.work()) == ("fn", "made", "worked")
    assert [s[3] for s in rec.spans] == ["fn", "make", "work"]
    patches.restore()
    assert not patches.active
    assert isinstance(vars(_Thing)["make"], classmethod)
    assert "work" not in vars(thing)
    assert (module.fn(), _Thing.make(), thing.work()) == ("fn", "made", "worked")
    assert len(rec.spans) == 3


def test_dump_and_load_round_trip(tmp_path):
    spans = [_span(1, 0, "a", 0.5, 1.5, trace=9, items=4)]
    path = str(tmp_path / "spans.json")
    assert spanlib.dump(path, server=spans) == 1
    assert spanlib.load(path) == {"server": spans}


def test_client_side_splits_fetch_into_encode_wait_decode():
    spans = [
        _span(1, 0, "client.fetch_batch", 0.0, 10.0, items=2),
        _span(2, 1, "client.encode_fetch", 0.5, 1.0),
        _span(3, 1, "client.decode_reply", 7.0, 8.0, items=4000),
        _span(4, 1, "client.decode_samples_item", 8.0, 8.5),
        _span(5, 1, "client.decode_samples_item", 8.5, 9.0),
        # A failed request: no reply was decoded, so it is left out.
        _span(6, 0, "client.fetch_batch", 20.0, 21.0, items=2),
        _span(7, 6, "client.encode_fetch", 20.0, 20.5),
    ]
    out = _client_side(spans)
    assert out["requests"] == 1 and out["pulses"] == 2
    assert out["encode_s"] == pytest.approx(0.5)
    assert out["wait_s"] == pytest.approx(6.0)  # encode end -> decode_reply start
    assert out["decode_s"] == pytest.approx(2.0)
    assert out["reply_bytes"] == 4000
    assert out["fetch_s"] == pytest.approx(10.0)
