import json
import os
import re

import pytest

from perfbench import catalogue
from perfbench.harness import Bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_DIR = os.path.join(catalogue.ROOT, "perfbench", "workloads")


def test_benchmark_json_is_the_catalogue():
    assert catalogue.load_benchmark_json() == catalogue.benchmark_json()


def test_benchmark_json_meets_the_contract():
    doc = catalogue.load_benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"] and doc["command"][1].startswith("perfbench/")
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len(doc["workloads"]) == 5
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * 30 <= 3420  # every run, set-up included, is sized under 30 s
    assert len(json.dumps(doc)) < 64 * 1024


def _metric_literals() -> set[str]:
    """Every catalogue-shaped string literal in the workload sources."""
    found = set()
    for fname in os.listdir(WORKLOAD_DIR):
        if fname.endswith(".py"):
            with open(os.path.join(WORKLOAD_DIR, fname)) as fh:
                found |= set(re.findall(r'"([a-z]+\.[a-z0-9_]+)"', fh.read()))
    return found


def test_every_catalogue_metric_is_emitted_and_nothing_else_can_be():
    literals = _metric_literals()
    assert set(catalogue.LAYER_NAMES) <= literals, set(catalogue.LAYER_NAMES) - literals
    # the reverse holds by construction: Bench.set refuses unknown names, and
    # the contract line is built from the catalogue's names alone
    bench = Bench("train_small", 0, 10.0, True, 0.0)
    with pytest.raises(KeyError):
        bench.set("model.not_in_the_catalogue_ms", 1.0)
    line = json.loads(bench.contract_line())
    assert tuple(line["metrics"]) == catalogue.LAYER_NAMES
    bench.trace = False
    assert tuple(json.loads(bench.contract_line())["metrics"]) == catalogue.E2E_NAMES


def test_per_layer_workloads_are_real_and_each_workload_has_layers():
    for m in catalogue.PER_LAYER:
        assert m.workloads and set(m.workloads) <= set(catalogue.WORKLOAD_NAMES)
    for w in catalogue.WORKLOAD_NAMES:
        assert sum(w in m.workloads for m in catalogue.PER_LAYER) >= 10
    for w, aliases in catalogue.ALIASES.items():
        assert w in catalogue.WORKLOAD_NAMES and set(aliases) <= set(catalogue.E2E_NAMES)
