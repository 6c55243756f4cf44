"""API-boundary enforcement: descriptor plumbing stays inside repro.model.

PR 5's contract: every consumer obtains predictions through the
:class:`repro.model.InferenceSession` protocol, and the frame ->
``DescriptorBatch`` assembly happens in exactly one place
(:func:`repro.model.session.frames_to_batch` and the training-side
``make_batch``).  This test walks the AST of every source file and fails
if a ``DescriptorBatch(...)`` constructor call appears outside
``src/repro/model/`` or ``src/repro/serve/`` -- hand-rolled descriptor
plumbing elsewhere (the pre-protocol active.py pattern) is a regression.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: subpackages allowed to construct DescriptorBatch directly
ALLOWED = ("model", "serve")


def _constructor_calls(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None
            )
            if name == "DescriptorBatch":
                lines.append(node.lineno)
    return lines


def test_descriptor_batch_constructed_only_in_model_and_serve():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno in _constructor_calls(tree):
            offenders.append(f"{rel}:{lineno}")
    assert not offenders, (
        "DescriptorBatch constructed outside repro.model/repro.serve "
        f"(use InferenceSession.predict_many or model.frames_to_batch): {offenders}"
    )


def test_active_loop_has_no_descriptor_imports():
    """The active-learning loop (repro.online) consumes the session
    protocol; importing a neighbor-table builder or DescriptorBatch there would
    mean the hand-rolled batch assembly crept back in."""
    imported = set()
    for path in sorted((SRC / "online").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    assert "DescriptorBatch" not in imported
    assert "neighbor_table" not in imported
    assert "batch_neighbor_tables" not in imported
    assert "make_batch" not in imported
