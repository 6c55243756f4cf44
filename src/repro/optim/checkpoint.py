"""One checkpoint format for model and optimizer state (DESIGN §5, "One
checkpoint").  A checkpoint is a directory: ``data.<gen>.bin`` holds every
array back to back, a fused filter's ``P`` blocks as their packed upper
triangle (:func:`~repro.optim.kalman.triangle_keys`), and
``manifest.json`` each array's dtype, shape, layout, offset and CRC32 per
member, plus the caller's metadata.  The manifest is the commit point:
the data file is written under a new name and synced, the manifest
replaced atomically, and only then the previous data file removed.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from ..durable import atomic_write_json
from .kalman import triangle_columns, triangle_keys, unfilled_triangle_block

__all__ = ["CheckpointError", "LegacyCheckpointError", "save_state", "load_state", "read_meta"]

SCHEMA = "repro.checkpoint/v1"
MANIFEST = "manifest.json"


class CheckpointError(ValueError):
    """A checkpoint that is missing, torn, corrupt or of another schema."""


class LegacyCheckpointError(CheckpointError):
    """A file where a checkpoint directory should be: the ``.npz``
    checkpoint format of earlier versions, which is not read."""


def _members(model, optimizer) -> tuple[list, list]:
    """(models, optimizers) for one model or a list of them."""
    if hasattr(model, "state_dict"):
        return [model], [optimizer]
    optimizers = [None] * len(model) if optimizer is None else list(optimizer)
    if len(optimizers) != len(model):
        raise ValueError(f"{len(optimizers)} optimizers for {len(model)} models")
    return list(model), optimizers


def _transfer(io, arr: np.ndarray, entry: dict) -> int:
    """Write (``io = fh.write``) or fill (``io = fh.readinto``) ``arr``
    as the file stores it; returns the CRC32 of its bytes."""
    crc = 0
    for chunk in triangle_columns(arr) if entry["layout"] == "triangle" else [arr.reshape(-1)]:
        if io(chunk) != chunk.nbytes:
            raise CheckpointError(f"{entry['key']} is truncated (torn data file)")
        crc = zlib.crc32(chunk, crc)
    return crc


def save_state(path: str, model, optimizer=None, *, meta: dict | None = None) -> None:
    """Checkpoint ``model`` (one model, or a list of members) with its
    optimizer (one, or one per member, None for a model-only member) and
    the JSON-serializable ``meta`` into the directory ``path``.  Each
    optimizer's ``state_dict()`` is built once."""
    members, placed = [], []
    for m, opt in zip(*_members(model, optimizer)):
        member = {"model": m.state_dict()}
        if opt is not None:
            member["optimizer"] = opt.state_dict()
        for part, state in member.items():
            triangles = triangle_keys(state)
            member[part] = []
            for key, value in state.items():
                arr = value if key in triangles else np.ascontiguousarray(value)
                member[part].append({"key": key, "dtype": arr.dtype.str, "shape": np.shape(value),
                                     "layout": "triangle" if key in triangles else "raw"})
                placed.append((member[part][-1], arr))
        members.append(member)

    os.makedirs(path, exist_ok=True)
    stale = [f for f in os.listdir(path) if f.startswith("data.")]
    name = f"data.{1 + max((int(f.split('.')[1]) for f in stale), default=-1)}.bin"
    with open(os.path.join(path, name), "wb") as fh:
        for entry, arr in placed:
            offset = fh.tell()
            entry.update(offset=offset, crc=_transfer(fh.write, arr, entry))
            entry["nbytes"] = fh.tell() - offset
        fh.flush()
        os.fsync(fh.fileno())
    manifest = {"schema": SCHEMA, "data": name, "members": members, "meta": meta or {}}
    atomic_write_json(os.path.join(path, MANIFEST), manifest)
    for old in stale:
        os.remove(os.path.join(path, old))


def read_meta(path: str) -> dict:
    """The metadata a checkpoint was saved with (reads its manifest only)."""
    return _manifest(path)["meta"]


def _manifest(path: str) -> dict:
    if os.path.isfile(path):  # what the .npz writers of earlier versions left
        raise LegacyCheckpointError(f"{path} is a file, as .npz checkpoints were; this "
                                    f"version reads only {SCHEMA} checkpoint directories")
    try:
        with open(os.path.join(path, MANIFEST)) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path} holds no readable checkpoint manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != SCHEMA:
        raise CheckpointError(f"{path} is not a {SCHEMA} checkpoint")
    return manifest


def _read(fh, entry: dict) -> np.ndarray:
    """One array, checked against its manifest entry."""
    if entry["layout"] == "triangle":
        arr = unfilled_triangle_block(entry["shape"][0])
    else:
        arr = np.empty(entry["shape"], dtype=np.dtype(entry["dtype"]))
    fh.seek(entry["offset"])
    if _transfer(fh.readinto, arr, entry) != entry["crc"]:
        raise CheckpointError(f"{entry['key']} fails its CRC (corrupt data file)")
    return arr


def load_state(path: str, model, optimizer=None) -> dict:
    """Restore a checkpoint written by :func:`save_state` into built
    members (and their optimizers, where given); returns its metadata.
    Every array is read and CRC-checked before anything is restored.  A
    member count that differs raises ``ValueError``, an optimizer for a
    model-only member ``KeyError``, and ``load_state_dict`` raises on a
    structure that does not match."""
    models, optimizers = _members(model, optimizer)
    manifest = _manifest(path)
    members = manifest["members"]
    if len(members) != len(models):
        raise ValueError(f"checkpoint holds {len(members)} members for {len(models)} models")
    parts = [("model", "optimizer") if opt is not None else ("model",) for opt in optimizers]
    for k, (member, names) in enumerate(zip(members, parts)):
        if not set(names) <= member.keys():
            raise KeyError(f"{path} holds no optimizer state for member {k}")
    with open(os.path.join(path, manifest["data"]), "rb") as fh:
        states = [[{e["key"]: _read(fh, e) for e in member[n]} for n in names]
                  for member, names in zip(members, parts)]
    for m, opt, (model_state, *opt_state) in zip(models, optimizers, states):
        m.load_state_dict(model_state)
        if opt is not None:
            opt.load_state_dict(opt_state[0])
    return manifest["meta"]
