"""CLI for the experiment harness: ``python -m repro.harness <experiment>``."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
import time

from .. import telemetry
from . import EXPERIMENTS
from .common import Report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'all', or 'list'",
    )
    parser.add_argument(
        "--systems",
        default=None,
        help="'quick' (Cu only, default), 'all', or comma-separated names",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="frames per temperature (overrides the experiment default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of text tables"
    )
    parser.add_argument(
        "--out", default="RESULTS.md", help="output path for 'report'"
    )
    parser.add_argument(
        "--heavy", action="store_true",
        help="full-scale sweeps for 'report' (slow)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="profile the run: print the per-phase op table and the "
        "hottest ops, and write a Chrome trace-event JSON here (open in "
        "Perfetto / chrome://tracing) plus the span JSONL next to it",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    tracer = telemetry.Tracer(profile=True) if args.trace_out else None
    try:
        with tracer or contextlib.nullcontext():
            return _run(args)
    finally:
        if tracer is not None:
            _finish_trace(tracer, args.trace_out)


def _run(args) -> int:
    if args.experiment == "report":
        from .report import generate

        generate(args.out, systems=args.systems, heavy=args.heavy)
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2
        fn = EXPERIMENTS[name]
        kwargs = {}
        sig = inspect.signature(fn)
        if "systems" in sig.parameters and args.systems is not None:
            kwargs["systems"] = args.systems
        if "frames_per_temperature" in sig.parameters and args.frames is not None:
            kwargs["frames_per_temperature"] = args.frames
        if "seed" in sig.parameters:
            kwargs["seed"] = args.seed
        t0 = time.perf_counter()
        # a no-op span unless --trace-out installed a tracer; with one,
        # every experiment gets a top-level extent in the exported trace
        # (even purely analytic ones)
        with telemetry.span("harness.experiment", experiment=name):
            report = fn(**kwargs)
        elapsed = time.perf_counter() - t0
        print(report.markdown() if args.markdown else report.format_table())
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


def _finish_trace(tracer, path: str) -> None:
    """Print where the run's ops went (per phase, then the hottest ops)
    and write the --trace-out bundle: Chrome trace + span JSONL."""
    phases = Report(
        "trace", "op-level profile by phase",
        ["Phase", "kernels", "wall ms", "MB moved", "MFLOP"],
    )
    for phase, agg in sorted(
        tracer.profiler.phase_summary().items(), key=lambda kv: -kv[1]["wall_s"]
    ):
        phases.add_row(
            phase,
            agg["kernels"],
            agg["wall_s"] * 1e3,
            agg["bytes"] / (1024 * 1024),
            agg["flops"] / 1e6,
        )
    print(phases.format_table())
    print(tracer.profiler.format_table(top=5))
    telemetry.write_chrome_trace(path, tracer=tracer)
    base, _ = os.path.splitext(path)
    jsonl_path = base + ".spans.jsonl"
    with telemetry.JsonlExporter(jsonl_path) as out:
        for ev in tracer.events:
            out(ev)
        out.write_metrics(telemetry.REGISTRY)
    print(f"[trace written to {path}; spans to {jsonl_path}]")


if __name__ == "__main__":
    raise SystemExit(main())
