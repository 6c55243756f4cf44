import statistics

import pytest

from perfbench import stats
from perfbench.harness import Bench


@pytest.mark.parametrize(
    "n, q",
    [(8, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (600, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, q):
    assert stats.supported_percentile(n) == q


def test_tail_and_summary_carry_the_sample_count():
    values = [float(v) for v in range(1, 101)]
    q, v = stats.tail(values)
    assert q == 90.0 and v == pytest.approx(90.1)
    s = stats.summary(values)
    assert s["n"] == 100 and s["p50"] == 50.5 and s["tail_q"] == 90.0


def test_quartiles_and_spread_match_the_driver_formula():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == (q3 - q1) / q2
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_end_to_end_value_is_the_median_of_rounds():
    bench = Bench("train_small", 0, 10.0, False, 0.0)
    bench.end_setup()
    bench.finish_e2e(job_walls=[4.0, 9.0, 5.0], op_ms=[1.0, 2.0, 30.0],
                     frames=(90, 18.0), rmse=0.3)
    assert bench.values["time_to_result_s"] == 5.0
    assert bench.values["op_ms_p50"] == 2.0
    assert bench.values["frames_per_s"] == 5.0
    assert bench.samples["time_to_result_s"]["n"] == 3
    assert bench.failed == 0


def test_windowed_tail_is_the_median_of_window_tails():
    calm = [float(v) for v in range(1, 101)]  # p90 = 90.1
    stalled = [v + 500.0 for v in calm]  # one stall moves one window only
    bench = Bench("serve_bundle", 0, 10.0, False, 0.0)
    bench.end_setup()
    bench.finish_e2e(job_walls=[1.0], op_ms=calm * 2 + stalled, frames=(1, 1.0),
                     rmse=1.0, op_windows=[calm, stalled, calm])
    assert bench.values["op_ms_tail"] == pytest.approx(90.1)
    assert bench.notes["op_ms_tail_percentile"] == 90.0
    assert bench.notes["op_ms_tail_windows"] == 3


def test_rounds_are_fixed_work_per_second_budget():
    assert Bench("train_small", 0, 10.0, False, 0.0).rounds(3) == 3
    assert Bench("train_small", 0, 20.0, False, 0.0).rounds(3) == 6
    assert Bench("train_small", 0, 1.0, False, 0.0).rounds(3) == 2


def test_failed_check_is_a_failed_operation():
    bench = Bench("train_small", 0, 10.0, False, 0.0)
    bench.check("always", True)
    bench.check("never", False, "why")
    assert (bench.attempted, bench.failed) == (2, 1)
    assert '"correct": false' in bench.contract_line()
