import json

from perfbench.spans import Span, SpanRecorder, covered, layer_table, self_times


def _span(sid, parent, t0, t1, name="s", layer="l"):
    return Span(sid, parent, name, layer, t0, t1, {})


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: already inside child 1
        _span(3, 0, 6.0, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 3.0 - 3.0
    assert selfs[1] == 3.0 - 1.0
    assert selfs[2] == 1.0


def test_self_time_counts_overlapping_children_by_their_union():
    # two worker threads overlap between t=3 and t=5
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 8.0)]
    assert self_times(spans)[0] == 10.0 - 7.0


def test_children_are_clipped_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_recorder_parentage_follows_with_nesting():
    rec = SpanRecorder()
    with rec.span("outer", "a"):
        with rec.span("inner", "b", k=1):
            pass
        rec.add("measured", "b", 0.0, 0.5)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["measured"].parent == by_name["outer"].id
    assert by_name["inner"].attrs == {"k": 1}
    table = layer_table(rec.spans)
    assert table["outer"]["calls"] == 1 and table["inner"]["layer"] == "b"


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("x", "l"):
        rec.add("y", "l", 0.0, 1.0)
    assert rec.spans == []


def test_paused_recorder_skips_the_block_only():
    rec = SpanRecorder()
    with rec.paused():
        with rec.span("warm-up", "l"):
            pass
    with rec.span("timed", "l"):
        pass
    assert [s.name for s in rec.spans] == ["timed"]


def test_span_files(tmp_path):
    rec = SpanRecorder()
    with rec.span("a", "layer1", step=3):
        pass
    rec.write(str(tmp_path / "s.jsonl"), str(tmp_path / "t.json"))
    line = json.loads((tmp_path / "s.jsonl").read_text().splitlines()[0])
    assert set(line) == {"id", "parent", "name", "layer", "t0", "t1", "attrs"}
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["args"]["step"] == 3
