"""``python -m perfbench``: run the workloads, trace them, compare results.

    PYTHONPATH=src python -m perfbench run --all --seed 0 [--trace] [--repeat N]
    python -m perfbench compare A.json B.json
    python -m perfbench manifest [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from . import catalogue, compare, envinfo, stats

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run_workload(workload: str, seed: int, seconds: float, trace: bool,
                  out_dir: str) -> dict:
    """One workload in its own fresh process; returns its detail record."""
    with tempfile.TemporaryDirectory() as tmp:
        detail = os.path.join(tmp, "detail.json")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--detail", detail, "--out", out_dir],
            stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        if not os.path.exists(detail):
            return {"workload": workload, "seed": seed, "trace": trace, "metrics": {},
                    "notes": {}, "checks": [], "ops_attempted": 1, "ops_failed": 1,
                    "failed_frac": 1.0, "exit_code": proc.returncode, "wall_s": wall}
        with open(detail) as fh:
            record = json.load(fh)
    record["exit_code"] = proc.returncode
    record["wall_s"] = wall
    return record


def _print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"\n== {record['workload']}  seed {record['seed']}  {kind}  "
          f"[{record['wall_s']:.1f} s, exit {record['exit_code']}] ==")
    aliases = catalogue.ALIASES.get(record["workload"], {})
    for name, m in record["metrics"].items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if name == "op_ms_tail":
            windows = record["notes"].get("op_ms_tail_windows", 1)
            extra += f"  (p{record['notes'].get('op_ms_tail_percentile', 0):g}" + (
                f", median of {windows} windows)" if windows > 1 else ")")
        if name in aliases and not record["trace"]:
            extra += f"  [{aliases[name]}]"
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s}{extra}")
    print(f"  {'failed_frac':36s} {record['failed_frac']:14.6g} ratio   "
          f"ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")
    if record["trace"] and "span_files" in record["notes"]:
        print(f"  spans: {', '.join(record['notes']['span_files'])}")


def _summarize(records: list[dict]) -> dict:
    """workload -> metric -> values over the untraced repeats."""
    summary: dict = {}
    for rec in records:
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            row = summary.setdefault(rec["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})
            row["values"].append(m["value"])
    for metrics in summary.values():
        for row in metrics.values():
            q1, q2, q3 = stats.quartiles(row["values"])
            row.update(median=q2, q1=q1, q3=q3, spread=stats.spread(row["values"]))
    return summary


def cmd_run(args) -> int:
    workloads = catalogue.WORKLOAD_NAMES if args.all or not args.workload else args.workload
    os.makedirs(args.out, exist_ok=True)
    result = envinfo.envelope(args.seed, args.seconds)
    records = []
    for workload in workloads:
        for _ in range(args.repeat):
            records.append(_run_workload(workload, args.seed, args.seconds, False, args.out))
            _print_record(records[-1])
        if args.trace:
            records.append(_run_workload(workload, args.seed, args.seconds, True, args.out))
            _print_record(records[-1])
    result["runs"] = records
    result["summary"] = _summarize(records)
    result["layers"] = {
        r["workload"]: {n: m["value"] for n, m in r["metrics"].items()}
        for r in records if r["trace"]
    }
    path = os.path.join(args.out, f"result-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    failed = sum(r["ops_failed"] for r in records)
    bad_exit = [r["workload"] for r in records if r["exit_code"] != 0]
    print(f"\nresult written to {path}; {failed} failed operation(s)"
          + (f"; non-zero exit: {bad_exit}" if bad_exit else ""))
    return 1 if failed or bad_exit else 0


def cmd_manifest(args) -> int:
    wanted = catalogue.benchmark_json()
    if args.check:
        same = catalogue.load_benchmark_json() == wanted
        print("BENCHMARK.json matches the catalogue" if same
              else "BENCHMARK.json differs from perfbench/catalogue.py")
        return 0 if same else 1
    with open(catalogue.BENCHMARK_JSON, "w") as fh:
        json.dump(wanted, fh, indent=2)
        fh.write("\n")
    print(f"wrote {catalogue.BENCHMARK_JSON}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads, each in a fresh process")
    run.add_argument("--all", action="store_true", help="all five workloads (default)")
    run.add_argument("--workload", action="append", choices=catalogue.WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    run.add_argument("--trace", action="store_true",
                     help="run each workload once more with spans: the per-layer table")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced runs per workload (a set, for compare)")
    run.add_argument("--out", default=os.path.join(catalogue.ROOT, "perfbench_out"))
    run.set_defaults(fn=cmd_run)
    cmp_ = sub.add_parser("compare", help="apply BENCHMARK.json bounds to two results")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=lambda a: compare.main(a.a, a.b))
    man = sub.add_parser("manifest", help="write (or --check) BENCHMARK.json")
    man.add_argument("--check", action="store_true")
    man.set_defaults(fn=cmd_manifest)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
