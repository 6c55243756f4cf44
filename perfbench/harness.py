"""One workload run in this process: measurement state, the shared
end-to-end arithmetic, and the contract line printed last on stdout."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from . import catalogue, stats
from .spans import SpanRecorder, layer_table

#: BLAS/OpenMP pins, set before numpy is first imported (see README)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("thread pins must be set before numpy is imported")
    os.environ.update(THREAD_ENV)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Bench:
    """State of one workload run.

    Workloads call :meth:`end_setup` once, feed samples through
    :meth:`set` / :meth:`finish_e2e`, count operations with
    :meth:`attempt` and record correctness checks with :meth:`check`
    (a failed check is a failed operation).
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 t_start: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = t_start
        self.rec = SpanRecorder(enabled=trace)
        #: metric name -> value
        self.values: dict[str, float] = {}
        #: metric name -> stats.summary() of the samples behind the value
        self.samples: dict[str, dict] = {}
        #: extra printed numbers that are not catalogue metrics
        self.notes: dict[str, object] = {}
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: float | None = None
        self._workdir: str | None = None

    # -- bookkeeping ----------------------------------------------------
    def rounds(self, per_ten_seconds: int) -> int:
        """Timed repetitions of a job sized at ``per_ten_seconds`` per 10 s
        of ``--seconds``: fixed work per run, so sample counts (and the
        percentile they support) do not flip between runs."""
        return max(2, round(per_ten_seconds * self.seconds / 10.0))

    def end_setup(self) -> None:
        self.setup_s = time.perf_counter() - self.t_start

    def attempt(self, n: int = 1, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        self.attempt(1, 0 if ok else 1)
        if not ok:
            print(f"[perfbench] CHECK FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    def set(self, name: str, value: float, samples=None) -> None:
        if name not in catalogue.UNITS:
            raise KeyError(f"{name!r} is not a catalogue metric")
        self.values[name] = float(value)
        if samples is not None and len(samples):
            self.samples[name] = stats.summary(list(samples))

    def workdir(self) -> str:
        """Scratch directory inside the checkout, removed at exit."""
        if self._workdir is None:
            base = os.path.join(catalogue.ROOT, ".perfbench_work")
            os.makedirs(base, exist_ok=True)
            self._workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=base)
        return self._workdir

    def cleanup(self) -> None:
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            try:  # leave nothing behind unless another run is using it
                os.rmdir(os.path.dirname(self._workdir))
            except OSError:
                pass
            self._workdir = None

    # -- the shared end-to-end arithmetic --------------------------------
    def finish_e2e(self, *, job_walls, op_ms, frames, rmse, op_windows=None) -> None:
        """``job_walls``: seconds of each timed job; ``op_ms``: latencies of
        the unit operation; ``frames``: (frames, wall seconds) through the
        workload; ``rmse``: held-out force RMSE (a guard).

        The tail is the highest supported percentile of the pooled
        ``op_ms`` -- or, when one continuous stream was cut into
        ``op_windows``, the median of the windows' tails, so that one stall
        moves one window and not the result."""
        self.set("setup_s", self.setup_s)
        self.set("time_to_result_s", stats.median(job_walls), job_walls)
        tails = [stats.tail(w) for w in op_windows or [op_ms]]
        self.set("op_ms_p50", stats.median(op_ms), op_ms)
        self.set("op_ms_tail", stats.median([t for _, t in tails]), op_ms)
        self.notes["op_ms_tail_percentile"] = min(q for q, _ in tails)
        self.notes["op_ms_tail_windows"] = len(tails)
        self.set("frames_per_s", frames[0] / frames[1])
        self.set("final_force_rmse", rmse)
        self.set("peak_rss_mb", peak_rss_mb())
        finite = all(math.isfinite(v) and v > 0 for v in self.values.values())
        self.check("metrics.finite_positive", finite, repr(self.values))

    # -- output ---------------------------------------------------------
    def contract_line(self) -> str:
        names = catalogue.LAYER_NAMES if self.trace else catalogue.E2E_NAMES
        metrics = {
            # a layer the workload does not exercise spends 0 there
            n: {"value": self.values.get(n, 0.0), "unit": catalogue.UNITS[n]}
            for n in names
        }
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        })

    def detail(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "metrics": {
                n: {"value": v, "unit": catalogue.UNITS[n], **self.samples.get(n, {})}
                for n, v in self.values.items()
            },
            "notes": self.notes,
            "checks": self.checks,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "failed_frac": self.failed / max(self.attempted, 1),
        }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            t_start: float, detail_path: str | None, out_dir: str) -> int:
    """Run ``workload`` here; print the contract line last.  Returns the
    process exit code (0 only when every operation and check passed)."""
    from .workloads import load  # imports repro (after the thread pins)

    bench = Bench(workload, seed, seconds, trace, t_start)
    module = load(workload)
    try:
        (module.trace if trace else module.run)(bench)
        if trace:
            os.makedirs(out_dir, exist_ok=True)
            stem = os.path.join(out_dir, f"{workload}-seed{seed}")
            bench.rec.write(stem + ".spans.jsonl", stem + ".trace.json")
            bench.notes["span_files"] = [stem + ".spans.jsonl", stem + ".trace.json"]
            bench.notes["span_table"] = layer_table(bench.rec.spans)
    except Exception:
        traceback.print_exc()
        bench.attempt(1, 1)
    finally:
        bench.cleanup()
    if detail_path:
        with open(detail_path, "w") as fh:
            json.dump(bench.detail(), fh, indent=1)
    sys.stderr.flush()
    print(bench.contract_line(), flush=True)
    return 0 if bench.failed == 0 else 1
