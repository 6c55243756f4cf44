"""CLI for the analysis subsystem: ``python -m repro.analysis <cmd>``.

Exit codes: 0 = clean, 1 = findings at error severity, 2 = usage or
load failure (a fixture that cannot be imported, an unknown backend).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from ..autograd.capture import capture
from .astlint import lint_paths
from .determinism import DEFAULT_BACKENDS, audit_determinism
from .findings import Report
from .graphlint import GraphLinter


def _emit(report: Report, as_json: bool, verbose: bool = False) -> int:
    if as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render(verbose=verbose))
    return report.exit_code


def _load_graph_module(path: Path):
    """Import a graph fixture file as an anonymous module.  The module
    must define ``build()`` returning the graph root tensor (or a
    sequence of roots)."""
    spec = importlib.util.spec_from_file_location(f"_graph_fixture_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    if not hasattr(mod, "build"):
        raise ImportError(f"{path} defines no build() function")
    return mod


def cmd_lint(args) -> int:
    paths = [Path(p) for p in args.paths] if args.paths else None
    report = lint_paths(paths, display_base=Path.cwd())
    return _emit(report, args.json, args.verbose)


def cmd_graph(args) -> int:
    path = Path(args.fixture)
    try:
        mod = _load_graph_module(path)
    except Exception as exc:
        print(f"{path}: error: cannot load graph fixture: {exc}", file=sys.stderr)
        return 2
    sanitizer = None
    with capture("tape") as tape:
        if args.sanitize:
            with capture("sanitize", mode="collect") as sanitizer:
                roots = mod.build()
        else:
            roots = mod.build()
    from ..autograd.tensor import Tensor

    if isinstance(roots, Tensor):
        roots = [roots]
    elif roots is None:
        roots = []
    report = GraphLinter(tape).lint(
        roots=list(roots), require_second_order=args.second_order
    )
    if sanitizer is not None:
        report.extend(sanitizer.report())
    return _emit(report, args.json, args.verbose)


def cmd_concurrency(args) -> int:
    from .concurrency import lint_concurrency, run_scenario

    paths = [Path(p) for p in args.paths] if args.paths else None
    report = lint_concurrency(paths, display_base=Path.cwd())
    report.tool = "concurrency"
    graphs = {}
    for name in args.scenario or []:
        try:
            scenario_report, graph = run_scenario(
                name, held_threshold_s=args.held_threshold_s
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report.extend(scenario_report)
        graphs[Path(name).stem if Path(name).exists() else name] = graph
    if args.graph_out:
        out = Path(args.graph_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"schema": "repro.lockgraph/v1", "scenarios": graphs}, indent=2
        ))
        print(f"lock-order graph: {out}")
    return _emit(report, args.json, args.verbose)


def cmd_determinism(args) -> int:
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    for b in backends:
        if b not in DEFAULT_BACKENDS:
            print(f"unknown backend {b!r} (choose from "
                  f"{', '.join(DEFAULT_BACKENDS)})", file=sys.stderr)
            return 2
    report = audit_determinism(
        world_size=args.world_size,
        steps=args.steps,
        backends=backends,
        seed=args.seed,
    )
    return _emit(report, args.json, args.verbose)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static & dynamic analyzers: AST project lint, "
                    "autograd graph lint, parallel determinism audit, "
                    "concurrency (lock discipline, lock order, races).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_lint = sub.add_parser("lint", help="AST project lint (default: the "
                                         "installed repro package)")
    p_lint.add_argument("paths", nargs="*", help="files/directories to lint")
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument("--verbose", action="store_true")
    p_lint.set_defaults(fn=cmd_lint)

    p_graph = sub.add_parser("graph", help="lint the autograd tape recorded "
                                           "while running a fixture's build()")
    p_graph.add_argument("fixture", help="python file defining build()")
    p_graph.add_argument("--second-order", action="store_true",
                         help="require every tape op to be create_graph-safe")
    p_graph.add_argument("--sanitize", action="store_true",
                         help="also run the NaN/Inf sanitizer (collect mode)")
    p_graph.add_argument("--json", action="store_true")
    p_graph.add_argument("--verbose", action="store_true")
    p_graph.set_defaults(fn=cmd_graph)

    p_det = sub.add_parser("determinism", help="certify bit-identical P "
                                               "across executor backends")
    p_det.add_argument("--world-size", type=int, default=4)
    p_det.add_argument("--steps", type=int, default=20)
    p_det.add_argument("--backends", default=",".join(DEFAULT_BACKENDS))
    p_det.add_argument("--seed", type=int, default=7)
    p_det.add_argument("--json", action="store_true")
    p_det.add_argument("--verbose", action="store_true")
    p_det.set_defaults(fn=cmd_determinism)

    p_conc = sub.add_parser(
        "concurrency",
        help="lock-discipline lint + lock-order/race certification "
             "scenarios (default: lint the installed repro package)",
    )
    p_conc.add_argument("paths", nargs="*",
                        help="files/directories to lint")
    p_conc.add_argument("--scenario", action="append", default=[],
                        help="run a certification scenario under the "
                             "lock-order recorder and race checker: "
                             "queues | serve | online | a path to a "
                             "python file defining run() (repeatable)")
    p_conc.add_argument("--held-threshold-s", type=float, default=None,
                        help="holds longer than this become "
                             "lock-held-too-long warnings (default 1s)")
    p_conc.add_argument("--graph-out", default=None,
                        help="write the recorded lock-order graph(s) "
                             "as JSON (the CI artifact)")
    p_conc.add_argument("--json", action="store_true")
    p_conc.add_argument("--verbose", action="store_true")
    p_conc.set_defaults(fn=cmd_concurrency)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
