"""AST-based project lint: repo-wide static rules for reproducibility.

The paper's claims are *determinism* claims (bit-identical P across
parallel backends, reproducible convergence traces), so the rules here
police the ways Python code quietly breaks them:

``unseeded-random``
    Legacy ``np.random.*`` calls (global, unseedable per-site state) and
    zero-argument ``np.random.default_rng()`` (OS-entropy seed).  All
    randomness must flow from an explicitly seeded ``Generator``.
``wallclock-time``
    ``time.time()`` anywhere in the package.  Measurements use
    ``time.perf_counter``/``process_time``; logic must never branch on
    wall-clock.
``private-import``
    Importing an underscore-prefixed name from a *different* ``repro``
    subpackage (e.g. ``repro.analysis`` reaching into
    ``repro.autograd._internals``).  Private names are free within their
    own subpackage; across subpackages they are an API hole.
``float32-cast``
    ``astype(np.float32)`` (or ``np.float32(...)``) in hot-path
    subsystems (autograd/optim/model/parallel): the engine invariant is
    float64 end to end, and a float32 round-trip visibly perturbs the
    Kalman P update (see ``repro.autograd.tensor.GRAD_DTYPE``).
``unregistered-op``
    A string-literal kernel name passed to ``make_op``/``record_launch``
    that no ``register_op()`` call in the scanned tree declares.  Keeps
    the instrument op table exhaustive, which the graph linter and the
    profiler depend on.
``unordered-reduction``
    ``concurrent.futures.as_completed`` -- completion order is
    scheduler-dependent, so any reduction folded in that order breaks
    bit-identical parallel replication.  Rank results must be reduced in
    rank order (see ``repro.parallel``).
``in-memory-materialize``
    Full-corpus reads (``source.positions[:]``-style whole-array slices
    of frame arrays, or zero-argument ``.to_dataset()``) inside the
    streaming hot paths (train/online).  Those components must go
    through the :class:`~repro.data.source.FrameSource` windowed API
    (``get_frames``/``neighbor_tables``) so an out-of-core
    :class:`~repro.data.framestore.ShardedFrameStore` keeps RSS bounded
    -- one stray ``[:]`` silently re-binds the corpus size to RAM.

Per-line suppression: append ``# lint: disable=<rule>[,<rule>...]`` to
the offending line (or the line directly above it).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .findings import Finding, Report

__all__ = ["ProjectLinter", "lint_paths", "RULES"]

RULES = (
    "unseeded-random",
    "wallclock-time",
    "private-import",
    "float32-cast",
    "unregistered-op",
    "unordered-reduction",
    "in-memory-materialize",
)

#: legacy np.random attributes that are fine (not stateful draws)
_RANDOM_OK = {"default_rng", "Generator", "PCG64", "SeedSequence", "BitGenerator"}
#: path components that mark a hot-path subsystem for the float32 rule
_HOT_COMPONENTS = {"autograd", "optim", "model", "parallel"}
#: path components where frame access must stay windowed (streaming hot
#: paths -- an out-of-core store may back the source)
_MATERIALIZE_SCOPE = {"train", "online"}
#: per-frame arrays a FrameSource may expose; a full slice of any of
#: them materializes the whole corpus
_FRAME_ARRAYS = {"positions", "forces", "energies", "temperatures"}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")


def _suppressed(lines: Sequence[str], lineno: int, rule: str) -> bool:
    """``# lint: disable=rule`` on the flagged line or the line above."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines):
            m = _SUPPRESS_RE.search(lines[ln - 1])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def _module_parts(path: Path) -> Optional[tuple[str, ...]]:
    """Dotted module parts for ``path`` if it lives under a ``repro``
    package directory (``.../repro/optim/ekf.py`` -> ("repro", "optim",
    "ekf")); ``None`` for files outside the package (fixtures, scripts)."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    mod = parts[i:]
    mod[-1] = mod[-1][:-3] if mod[-1].endswith(".py") else mod[-1]
    if mod[-1] == "__init__":
        mod = mod[:-1]
    return tuple(mod)


def _subpackage(parts: Optional[tuple[str, ...]]) -> Optional[str]:
    """The ``repro.<sub>`` component a module belongs to (None outside)."""
    if parts is None or len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


class _FileVisitor(ast.NodeVisitor):
    def __init__(
        self,
        path: Path,
        display: str,
        lines: Sequence[str],
        known_ops: set,
        report: Report,
    ):
        self.path = path
        self.display = display
        self.lines = lines
        self.known_ops = known_ops
        self.report = report
        self.module = _module_parts(path)
        self.subpackage = _subpackage(self.module)
        self.hot = bool(_HOT_COMPONENTS & set(path.parts))
        self.streaming_hot = bool(_MATERIALIZE_SCOPE & set(path.parts))
        #: names bound by ``from ... import as_completed``-style imports
        self.as_completed_aliases: set[str] = set()

    # ------------------------------------------------------------------
    def flag(self, rule: str, node: ast.AST, message: str, **context) -> None:
        lineno = getattr(node, "lineno", 0)
        if _suppressed(self.lines, lineno, rule):
            return
        self.report.add(Finding(
            rule=rule,
            message=message,
            file=self.display,
            line=lineno,
            context=context,
        ))

    # -- imports --------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve_import(node)
        if target is not None and target and target[0] == "repro":
            target_sub = _subpackage(target)
            for alias in node.names:
                if not alias.name.startswith("_"):
                    continue
                if target_sub is not None and target_sub == self.subpackage:
                    continue  # private within its own subpackage: fine
                self.flag(
                    "private-import", node,
                    f"imports private name {alias.name!r} from "
                    f"{'.'.join(target)} (a different repro subpackage); "
                    f"use or add a public accessor instead",
                    name=alias.name, source=".".join(target),
                )
        if node.module == "concurrent.futures":
            for alias in node.names:
                if alias.name == "as_completed":
                    self.as_completed_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _resolve_import(self, node: ast.ImportFrom) -> Optional[tuple[str, ...]]:
        """Absolute module parts an ImportFrom refers to, or None when the
        importer's package is unknown and the import is relative."""
        mod = tuple(node.module.split(".")) if node.module else ()
        if node.level == 0:
            return mod
        if self.module is None:
            # a relative import in a file outside any repro package --
            # nothing to resolve against
            return None
        # package of the importing module, then up (level - 1) more
        pkg = self.module[:-1]
        up = node.level - 1
        if up > len(pkg):
            return None
        base = pkg[:len(pkg) - up] if up else pkg
        return tuple(base) + mod

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_random(node)
        self._check_wallclock(node)
        self._check_float32(node)
        self._check_op_literal(node)
        self._check_as_completed(node)
        self._check_materialize_call(node)
        self.generic_visit(node)

    # -- subscripts ------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._check_materialize_slice(node)
        self.generic_visit(node)

    @staticmethod
    def _attr_chain(node: ast.AST) -> Optional[tuple[str, ...]]:
        """("np", "random", "seed") for ``np.random.seed`` etc."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        return None

    def _check_random(self, node: ast.Call) -> None:
        chain = self._attr_chain(node.func)
        if chain is None or len(chain) < 3:
            return
        if chain[0] not in ("np", "numpy") or chain[1] != "random":
            return
        name = chain[2]
        if name == "default_rng":
            if not node.args and not node.keywords:
                self.flag(
                    "unseeded-random", node,
                    "np.random.default_rng() without a seed draws entropy "
                    "from the OS; pass an explicit seed",
                )
            return
        if name not in _RANDOM_OK:
            self.flag(
                "unseeded-random", node,
                f"legacy np.random.{name}() uses the unseedable global "
                f"state; use a seeded np.random.default_rng(seed) Generator",
                name=name,
            )

    def _check_wallclock(self, node: ast.Call) -> None:
        chain = self._attr_chain(node.func)
        if chain in (("time", "time"), ("time", "time_ns")):
            self.flag(
                "wallclock-time", node,
                f"{'.'.join(chain)}(); use time.perf_counter() for "
                f"measurement -- wall-clock reads make runs irreproducible",
            )

    def _check_float32(self, node: ast.Call) -> None:
        if not self.hot:
            return
        is_cast = False
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype" and node.args:
            arg = node.args[0]
            chain = self._attr_chain(arg)
            if chain is not None and chain[-1] == "float32":
                is_cast = True
            elif isinstance(arg, ast.Constant) and arg.value == "float32":
                is_cast = True
        else:
            chain = self._attr_chain(func)
            if chain is not None and chain[-1] == "float32" and \
                    chain[0] in ("np", "numpy"):
                is_cast = True
        if is_cast:
            self.flag(
                "float32-cast", node,
                "float32 cast in a hot-path subsystem; the engine invariant "
                "is float64 end to end (repro.autograd.tensor.GRAD_DTYPE)",
            )

    def _check_op_literal(self, node: ast.Call) -> None:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name not in ("make_op", "record_launch"):
            return
        literal: Optional[ast.Constant] = None
        if func_name == "make_op":
            if len(node.args) >= 4 and isinstance(node.args[3], ast.Constant):
                literal = node.args[3]
            for kw in node.keywords:
                if kw.arg == "op" and isinstance(kw.value, ast.Constant):
                    literal = kw.value
        else:
            if node.args and isinstance(node.args[0], ast.Constant):
                literal = node.args[0]
            for kw in node.keywords:
                if kw.arg == "op_name" and isinstance(kw.value, ast.Constant):
                    literal = kw.value
        if literal is None or not isinstance(literal.value, str):
            return
        if literal.value not in self.known_ops:
            self.flag(
                "unregistered-op", node,
                f"kernel name {literal.value!r} passed to {func_name}() has "
                f"no register_op() declaration anywhere in the tree; register "
                f"it next to the kernel definition",
                op=literal.value,
            )

    def _check_materialize_call(self, node: ast.Call) -> None:
        if not self.streaming_hot:
            return
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "to_dataset" and \
                not node.args and not node.keywords:
            self.flag(
                "in-memory-materialize", node,
                "zero-argument .to_dataset() materializes the whole corpus "
                "in RAM inside a streaming hot path; read windows through "
                "get_frames()/neighbor_tables() or pass explicit indices",
            )

    def _check_materialize_slice(self, node: ast.Subscript) -> None:
        if not self.streaming_hot or not isinstance(node.ctx, ast.Load):
            return
        sl = node.slice
        if not (isinstance(sl, ast.Slice) and sl.lower is None
                and sl.upper is None and sl.step is None):
            return
        if isinstance(node.value, ast.Attribute) and \
                node.value.attr in _FRAME_ARRAYS:
            self.flag(
                "in-memory-materialize", node,
                f"full slice of .{node.value.attr} reads the whole corpus "
                f"into RAM inside a streaming hot path; an out-of-core "
                f"FrameSource must be read in windows "
                f"(get_frames(indices), not .{node.value.attr}[:])",
                attr=node.value.attr,
            )

    def _check_as_completed(self, node: ast.Call) -> None:
        flagged = False
        if isinstance(node.func, ast.Name) and \
                node.func.id in self.as_completed_aliases:
            flagged = True
        else:
            chain = self._attr_chain(node.func)
            if chain is not None and chain[-1] == "as_completed" and \
                    ("futures" in chain or "concurrent" in chain):
                flagged = True
        if flagged:
            self.flag(
                "unordered-reduction", node,
                "as_completed() yields results in scheduler-dependent order; "
                "reductions folded in that order are not bit-reproducible -- "
                "iterate futures in rank order instead",
            )


def _collect_registered_ops(trees: Iterable[tuple[Path, ast.AST]]) -> set:
    """Every string literal declared via ``register_op("name", ...)``
    anywhere in the scanned tree (purely static -- nothing is imported)."""
    known: set = set()
    for _path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "register_op":
                continue
            target = None
            if node.args and isinstance(node.args[0], ast.Constant):
                target = node.args[0]
            for kw in node.keywords:
                if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                    target = kw.value
            if target is not None and isinstance(target.value, str):
                known.add(target.value)
    return known


def _live_registered_ops() -> set:
    """Names in the live instrument op table, after importing the core
    op-defining modules.  Complements the static scan so linting a
    *subtree* still knows about ops registered elsewhere in the package."""
    try:
        from ..autograd import fuse, ops  # noqa: F401  (import = register)
        from ..autograd.instrument import registered_ops
        from ..model import environment  # noqa: F401
        from ..optim import kalman  # noqa: F401
    except Exception:  # pragma: no cover - partial installs
        return set()
    return set(registered_ops())


class ProjectLinter:
    """Runs every AST rule over a file tree.

    ``root`` defaults to the installed ``repro`` package directory, so
    ``python -m repro.analysis lint`` with no arguments lints the
    project source.  ``display_base`` controls how paths render in
    findings (relative to it when possible).
    """

    def __init__(
        self,
        paths: Optional[Sequence[Path]] = None,
        display_base: Optional[Path] = None,
    ):
        if paths is None:
            paths = [Path(__file__).resolve().parent.parent]  # the repro pkg
        self.paths = [Path(p) for p in paths]
        self.display_base = display_base

    def _iter_files(self) -> list[Path]:
        files: list[Path] = []
        for p in self.paths:
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(p)
        return files

    def _display(self, path: Path) -> str:
        base = self.display_base
        if base is not None:
            try:
                return str(path.resolve().relative_to(Path(base).resolve()))
            except ValueError:
                pass
        return str(path)

    def run(self) -> Report:
        report = Report(tool="astlint")
        report.checks_run.extend(RULES)
        files = self._iter_files()
        report.metrics["files_scanned"] = len(files)
        trees: list[tuple[Path, ast.AST]] = []
        sources: dict[Path, list[str]] = {}
        for path in files:
            try:
                text = path.read_text()
                tree = ast.parse(text, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                report.add(Finding(
                    rule="parse-error",
                    message=f"could not parse: {exc}",
                    file=self._display(path),
                    line=getattr(exc, "lineno", None),
                ))
                continue
            trees.append((path, tree))
            sources[path] = text.splitlines()
        known_ops = _collect_registered_ops(trees)
        known_ops |= _live_registered_ops()
        report.metrics["registered_ops"] = len(known_ops)
        for path, tree in trees:
            visitor = _FileVisitor(
                path, self._display(path), sources[path], known_ops, report
            )
            visitor.visit(tree)
        return report


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    display_base: Optional[Path] = None,
) -> Report:
    """Convenience wrapper: ``ProjectLinter(paths).run()``."""
    return ProjectLinter(paths, display_base=display_base).run()
