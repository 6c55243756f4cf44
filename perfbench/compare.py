"""``python -m perfbench compare A.json B.json``: the regression check.

One row per (end-to-end metric, workload) pairing, judged against the
metric's bound in ``BENCHMARK.json`` (plus the catalogue's same-seed
guards, which only mean something when A and B ran the same seed):

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than the bound;
* ``within``     neither;
* ``unresolved`` a set's own spread (inter-quartile distance / median)
  exceeds the bound, so the pair cannot be told apart -- unless every
  run of B beats every run of A (``better``) or loses to it (``worse``).
  ``setup_s`` is judged on its medians alone: it holds every cold cost,
  and the contract exempts its spread.
"""

from __future__ import annotations

import json

from . import catalogue, stats


def _values(result: dict, workload: str, metric: str) -> list[float]:
    return result.get("summary", {}).get(workload, {}).get(metric, {}).get("values", [])


#: metrics whose own spread does not make a pairing unresolved
SPREAD_EXEMPT = ("setup_s",)


def verdict(a: list[float], b: list[float], better: str, bound: float,
            spread_exempt: bool = False) -> tuple[str, float]:
    """(``better | within | worse | unresolved``, signed relative change of
    the median in the *worse* direction)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = stats.median(a), stats.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else float("inf")
    if not spread_exempt and max(stats.spread(a), stats.spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", worse_by
        if all(sign * (y - x) > 0 for x in a for y in b) and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within", worse_by


def compare(a: dict, b: dict, bench: dict) -> list[dict]:
    rows = []
    guards = [g._asdict() for g in catalogue.GUARDS]
    for metric in bench["end_to_end"] + guards:
        for workload in (w["name"] for w in bench["workloads"]):
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            v, worse_by = verdict(va, vb, metric["better"], metric["bound"],
                                  metric["name"] in SPREAD_EXEMPT)
            rows.append({
                "metric": metric["name"], "workload": workload, "unit": metric["unit"],
                "a": stats.median(va), "b": stats.median(vb),
                "spread_a": stats.spread(va), "spread_b": stats.spread(vb),
                "worse_by": worse_by, "bound": metric["bound"], "verdict": v,
            })
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows = compare(a, b, catalogue.load_benchmark_json())
    if not rows:
        print("no (metric, workload) pairing is present in both files")
        return 2
    print(f"{'metric':20s} {'workload':13s} {'A':>12s} {'B':>12s} {'unit':5s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread A/B':>13s}  verdict")
    for r in rows:
        print(f"{r['metric']:20s} {r['workload']:13s} {r['a']:12.5g} {r['b']:12.5g} "
              f"{r['unit']:5s} {r['worse_by']:+9.1%} {r['bound']:6.0%} "
              f"{r['spread_a']:6.1%}/{r['spread_b']:6.1%}  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "within", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0
