from perfbench.compare import compare, verdict

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def _result(**metrics):
    return {"summary": {"w": {k: {"values": v} for k, v in metrics.items()}}}


def test_verdicts_follow_direction_and_bound():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [v * 1.1 for v in steady], "lower", 0.25)[0] == "within"
    assert verdict(steady, [v * 1.4 for v in steady], "lower", 0.25)[0] == "worse"
    assert verdict(steady, [v * 1.4 for v in steady], "higher", 0.25)[0] == "better"
    assert verdict(steady, [v * 0.6 for v in steady], "higher", 0.25)[0] == "worse"


def test_wide_spread_is_unresolved_unless_every_run_agrees():
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0]
    assert verdict(noisy, [11.0, 8.0, 13.0, 10.0, 9.5], "lower", 0.25)[0] == "unresolved"
    assert verdict(noisy, [3.0, 4.0, 5.0, 2.0, 6.0], "lower", 0.25)[0] == "better"
    assert verdict(noisy, [30.0, 40.0, 50.0, 20.0, 60.0], "lower", 0.25)[0] == "worse"


def test_setup_is_judged_on_medians_and_guards_are_included():
    bimodal = [1.9, 9.5, 1.8, 2.0, 9.1]
    a = _result(setup_s=bimodal, op_ms_p50=[10.0, 10.2], final_force_rmse=[0.33, 0.33])
    b = _result(setup_s=bimodal, op_ms_p50=[10.1, 10.0], final_force_rmse=[0.36, 0.36])
    rows = {r["metric"]: r["verdict"] for r in compare(a, b, BENCH)}
    assert rows == {"setup_s": "within", "op_ms_p50": "within",
                    "final_force_rmse": "worse"}  # 9 % worse against a 5 % guard
