"""Span lifecycle: nesting, timing, counters, per-span kernel launches,
and the no-op fast path."""

import numpy as np

from repro import telemetry
from repro.autograd import Tensor
from repro.telemetry import NULL_SPAN, Tracer, current_tracer
from repro.telemetry.profile import launches_by_span


class TestSpanNesting:
    def test_parent_child_linkage(self):
        with Tracer() as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
                with tr.span("inner"):
                    pass
        # children close before their parent
        names = [e.name for e in tr.events]
        assert names == ["inner", "inner", "outer"]
        outer = tr.events[-1]
        for inner in tr.events[:2]:
            assert inner.parent_id == outer.span_id
            assert inner.depth == outer.depth + 1
            # ids are assigned at open, so a parent id < its children's
            assert outer.span_id < inner.span_id
        assert outer.parent_id is None
        assert outer.depth == 0

    def test_module_level_span_reports_to_innermost_tracer(self):
        with Tracer() as tr_outer:
            with Tracer() as tr_inner:
                with telemetry.span("work", tag="x"):
                    pass
            with telemetry.span("other"):
                pass
        assert [e.name for e in tr_inner.events] == ["work"]
        assert tr_inner.events[0].attrs == {"tag": "x"}
        assert [e.name for e in tr_outer.events] == ["other"]

    def test_wall_time_contains_children(self):
        with Tracer() as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    x = 0.0
                    for i in range(5000):
                        x += i
        inner, outer = tr.events
        assert outer.wall_s >= inner.wall_s >= 0.0
        assert outer.cpu_s >= 0.0

    def test_counters_and_attrs(self):
        with Tracer() as tr:
            with tr.span("s", kind="energy") as sp:
                sp.add("updates")
                sp.add("updates", 2)
                sp.set("group", 3)
        ev = tr.events[0]
        assert ev.counters == {"updates": 3}
        assert ev.attrs == {"kind": "energy", "group": 3}


class TestNoOpPath:
    def test_span_without_tracer_is_shared_null(self):
        assert current_tracer() is None
        sp = telemetry.span("anything", k=1)
        assert sp is NULL_SPAN
        with sp as s:
            s.add("x").set("y", 2)  # all no-ops, chainable

    def test_enable_disable(self):
        """Entering a tracer enables tracing on this thread; leaving it
        restores the shared no-op span."""
        with Tracer() as tr:
            assert current_tracer() is tr
            with telemetry.span("e"):
                pass
        assert current_tracer() is None
        assert telemetry.span("e") is NULL_SPAN
        assert [e.name for e in tr.events] == ["e"]


class TestKernelCapture:
    """A span's kernel launches are the profiler's op events under it."""

    def test_spans_carry_kernel_counts(self):
        a = Tensor(np.ones((4, 4)))
        with Tracer(profile=True) as tr:
            (a @ a).sum()  # top level: no span owns these
            with tr.span("compute"):
                (a @ a).sum()
        (ev,) = tr.events
        assert launches_by_span(tr.events, tr.profiler.events) == {ev.span_id: 2}

    def test_parent_counts_include_children(self):
        a = Tensor(np.ones((4, 4)))
        with Tracer(profile=True) as tr:
            with tr.span("outer"):
                a + a
                with tr.span("inner"):
                    a @ a
        inner, outer = tr.events
        launches = launches_by_span(tr.events, tr.profiler.events)
        assert (launches[outer.span_id], launches[inner.span_id]) == (2, 1)


class TestSinksAndSummary:
    def test_sink_called_per_event(self):
        seen = []
        with Tracer(sinks=[seen.append]) as tr:
            with tr.span("a"):
                pass
            with tr.span("a"):
                pass
        assert [e.name for e in seen] == ["a", "a"]

    def test_keep_events_false_streams_only(self):
        seen = []
        with Tracer(sinks=[seen.append], keep_events=False) as tr:
            with tr.span("a"):
                pass
        assert tr.events == []
        assert len(seen) == 1

    def test_summary_aggregates_by_name(self):
        with Tracer() as tr:
            for _ in range(3):
                with tr.span("step") as sp:
                    sp.add("kernels", 2)
        summ = tr.summary()
        assert summ["step"]["count"] == 3
        assert summ["step"]["counters"]["kernels"] == 6
        assert summ["step"]["wall_s"] >= summ["step"]["max_wall_s"]


class TestTrainingEmitsSpans:
    def test_events_flow_during_training(self, cu_dataset, small_cfg):
        """The instrumented hot path end to end: one traced epoch of FEKF
        training emits the trainer's and the optimizer's spans."""
        from repro.model import DeePMD
        from repro.optim import make_optimizer
        from repro.train import Trainer

        model = DeePMD.for_dataset(cu_dataset, small_cfg, seed=1)
        opt = make_optimizer("fekf", model, blocksize=1024)
        trainer = Trainer(model, opt, cu_dataset, None, batch_size=6, seed=0,
                          eval_frames=4)
        with Tracer() as tr:
            trainer.run(max_epochs=1)
        assert {"train.run", "train.step", "train.eval",
                "fekf.update", "fekf.forward", "fekf.gradient",
                "fekf.kalman"} <= {e.name for e in tr.events}
