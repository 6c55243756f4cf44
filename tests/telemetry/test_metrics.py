"""MetricRegistry: get-or-create semantics, labels, snapshot."""

from repro.telemetry import MetricRegistry


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = MetricRegistry()
        c = reg.counter("steps")
        c.inc()
        c.inc(2.5)
        assert reg.counter("steps") is c
        assert c.value == 3.5

    def test_labels_distinguish_instruments(self):
        reg = MetricRegistry()
        reg.counter("kernels", op="matmul").inc(3)
        reg.counter("kernels", op="add").inc(1)
        assert reg.counter("kernels", op="matmul").value == 3
        assert reg.counter("kernels", op="add").value == 1
        # label order must not matter
        a = reg.gauge("g", x=1, y=2)
        assert reg.gauge("g", y=2, x=1) is a

    def test_gauge_last_value_wins(self):
        reg = MetricRegistry()
        g = reg.gauge("lambda")
        assert g.value is None
        g.set(0.98)
        g.set(0.99)
        assert g.value == 0.99

    def test_histogram_summary(self):
        reg = MetricRegistry()
        h = reg.histogram("dt")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["mean"] == 2.5
        assert 1.0 <= s["p50"] <= 4.0

    def test_histogram_bounded_samples_exact_totals(self):
        reg = MetricRegistry()
        h = reg.histogram("dt", max_samples=8)
        for v in range(100):
            h.observe(float(v))
        assert len(h.samples) == 8
        assert h.count == 100
        assert h.total == sum(range(100))
        assert h.max == 99.0


class TestHistogramPercentiles:
    def test_empty_histogram_is_all_zeros(self):
        h = MetricRegistry().histogram("dt")
        assert h.percentile(50) == 0.0
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 0.0
        s = h.summary()
        assert s["min"] == 0.0 and s["max"] == 0.0 and s["p99"] == 0.0

    def test_extreme_quantiles_are_exact_min_max(self):
        h = MetricRegistry().histogram("dt")
        for v in [5.0, 1.0, 3.0]:
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(-3) == 1.0
        assert h.percentile(100) == 5.0
        assert h.percentile(250) == 5.0

    def test_extremes_exact_even_when_reservoir_capped(self):
        # the reservoir keeps the first 4 samples, but min/max are
        # tracked exactly for every observation
        h = MetricRegistry().histogram("dt", max_samples=4)
        for v in range(100):
            h.observe(float(v))
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 99.0

    def test_capped_flag(self):
        h = MetricRegistry().histogram("dt", max_samples=2)
        h.observe(1.0)
        assert h.capped is False
        assert h.summary()["capped"] is False
        h.observe(2.0)
        h.observe(3.0)
        assert h.capped is True
        assert h.summary()["capped"] is True


class TestHistogramMerge:
    def test_merge_lossless_aggregates(self):
        reg = MetricRegistry()
        a = reg.histogram("dt", rank=0)
        b = reg.histogram("dt", rank=1)
        for v in [1.0, 2.0]:
            a.observe(v)
        for v in [10.0, 0.5]:
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.total == 13.5
        assert a.min == 0.5
        assert a.max == 10.0
        assert sorted(a.samples) == [0.5, 1.0, 2.0, 10.0]

    def test_merge_accepts_as_dict_form(self):
        reg = MetricRegistry()
        a = reg.histogram("dt")
        b = reg.histogram("other")
        b.observe(7.0)
        a.merge(b.as_dict())
        assert a.count == 1 and a.max == 7.0

    def test_merge_empty_is_noop(self):
        a = MetricRegistry().histogram("dt")
        a.observe(1.0)
        a.merge(MetricRegistry().histogram("empty"))
        assert a.count == 1 and a.min == 1.0

    def test_merge_respects_reservoir_cap(self):
        reg = MetricRegistry()
        a = reg.histogram("dt", max_samples=3)
        b = reg.histogram("src")
        for v in range(10):
            b.observe(float(v))
        a.merge(b)
        assert a.count == 10
        assert len(a.samples) == 3
        assert a.capped is True


class TestSnapshot:
    def test_snapshot_shape_and_label_strings(self):
        reg = MetricRegistry()
        reg.counter("c", op="matmul").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c{op=matmul}": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_reset(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

