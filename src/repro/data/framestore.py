"""Out-of-core frame storage: the ``repro.framestore/v1`` sharded store.

Every dataset used to be a fully in-memory :class:`~repro.data.dataset.
Dataset`; the paper's systems train on 10k--72k snapshots and the online
loop ingests an unbounded label stream, so the corpus must live on disk
and only the working set in RAM.  :class:`ShardedFrameStore` is that
store: an append-only sequence of fixed-capacity shard files plus a JSON
manifest, read through ``mmap`` so the OS pages in exactly the frames a
batch touches, with an LRU bound on how many shards stay mapped at once.

On-disk schema (``repro.framestore/v1``)
----------------------------------------
A store is a directory::

    store/
      manifest.json        # schema, geometry, shard table (atomic rewrite)
      shard-00000.rfs      # sealed: header | frames | footer
      shard-00001.rfs      # active: header | frames (no footer yet)

Each shard file starts with a fixed 48-byte header (magic, version, atom
count, capacity, record length) followed by densely packed float64 frame
records ``[positions (N,3) | forces (N,3) | energy | temperature]``.
When a shard reaches its capacity it is *sealed*: a footer is appended
carrying the per-frame CRC32 index, the payload CRC, and a trailing
magic.  The active (tail) shard has no footer; its per-frame CRCs live
in the manifest, which is rewritten atomically (tmp + ``os.replace``)
after every append batch.

Corruption handling is fail-closed: any torn tail, truncated footer, or
CRC/manifest mismatch raises the typed :class:`FrameStoreCorrupt` from
:meth:`ShardedFrameStore.open`; ``recover=True`` instead drops everything
from the first invalid shard onward and reopens the longest valid prefix
(the crash-safety contract the tests exercise).

Reads go through :meth:`get_frames` / :meth:`neighbor_tables`, the
:class:`~repro.data.source.FrameSource` protocol -- a store is a drop-in
replacement for a ``Dataset`` everywhere batches are built, and training
from one is bit-identical to training from the equivalent in-memory
dataset (the frames are the same bytes; neighbor tables come from the
same :func:`~repro.md.neighbor.batch_neighbor_tables` kernel).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..durable import atomic_write_json
from ..md.cell import Cell
from ..md.neighbor import NeighborArrays, NeighborTable, batch_neighbor_tables
from .dataset import Dataset

__all__ = [
    "SCHEMA",
    "FrameStoreCorrupt",
    "ShardedFrameStore",
]

SCHEMA = "repro.framestore/v1"

_HEADER_MAGIC = b"RFSHRD1\n"
_FOOTER_MAGIC = b"RFSFTR1\n"
#: fixed shard header: magic, version, n_atoms, capacity, record elems,
#: 20 reserved bytes -> 48 bytes total
_HEADER_FMT = "<8sIIII20s"
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
#: fixed footer trailer (after the CRC table): payload crc, table crc,
#: frame count, magic
_TRAILER_FMT = "<III8s"
_TRAILER_BYTES = struct.calcsize(_TRAILER_FMT)
_VERSION = 1

_MANIFEST = "manifest.json"


class FrameStoreCorrupt(RuntimeError):
    """A frame store failed validation (torn shard, truncated index, or
    CRC mismatch).  ``shard`` names the first offending shard file when
    one is known."""

    def __init__(self, message: str, shard: Optional[str] = None):
        super().__init__(message if shard is None else f"{shard}: {message}")
        self.shard = shard


def _record_elems(n_atoms: int) -> int:
    """float64 elements per frame record: positions + forces + E + T."""
    return 6 * n_atoms + 2


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.rfs"


@dataclass
class _ShardMeta:
    """One manifest row describing a shard file."""

    file: str
    n_frames: int
    sealed: bool
    #: CRC32 of the packed frame payload (sealed shards; also kept for
    #: the active shard so reopen can detect torn tails cheaply)
    payload_crc: int
    #: CRC32 of the footer's CRC table (sealed shards only)
    table_crc: int = 0
    #: per-frame CRC32s of the active shard (sealed shards carry them in
    #: the footer index instead)
    frame_crcs: Optional[list[int]] = None

    def as_dict(self) -> dict:
        d = {
            "file": self.file,
            "n_frames": self.n_frames,
            "sealed": self.sealed,
            "payload_crc": self.payload_crc,
        }
        if self.sealed:
            d["table_crc"] = self.table_crc
        else:
            d["frame_crcs"] = list(self.frame_crcs or [])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "_ShardMeta":
        return cls(
            file=str(d["file"]),
            n_frames=int(d["n_frames"]),
            sealed=bool(d["sealed"]),
            payload_crc=int(d.get("payload_crc", 0)),
            table_crc=int(d.get("table_crc", 0)),
            frame_crcs=[int(c) for c in d["frame_crcs"]]
            if "frame_crcs" in d
            else None,
        )


class _ShardView:
    """A memory-mapped read view of one shard's frame records."""

    def __init__(self, path: str, n_frames: int, record_elems: int):
        self._fh = open(path, "rb")
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._fh.close()
            raise
        self.records = np.frombuffer(
            self._mm,
            dtype="<f8",
            count=n_frames * record_elems,
            offset=_HEADER_BYTES,
        ).reshape(n_frames, record_elems)

    def close(self) -> None:
        # the records array holds a buffer export on the mmap; release it
        # before closing or mmap.close() raises BufferError
        self.records = None
        self._mm.close()
        self._fh.close()


class ShardedFrameStore:
    """Append-only sharded, memory-mapped frame store (one system).

    Implements the :class:`~repro.data.source.FrameSource` protocol, so
    anything that trains or evaluates from a ``Dataset`` works from a
    store unchanged.  Construction surfaces:

    * :meth:`create` -- new empty store (then :meth:`append` /
      :meth:`append_dataset`);
    * :meth:`open` -- existing store, read-only (``mode="r"``) or
      appendable (``mode="a"``); corruption raises
      :class:`FrameStoreCorrupt` unless ``recover=True``;
    * :meth:`ingest` -- one-shot conversion of any frame source.

    ``max_open_shards`` bounds resident memory: at most that many shard
    mappings stay alive (LRU), so iterating a corpus far larger than RAM
    keeps RSS flat.  ``validate=True`` (default) checks each fetched
    frame's CRC32 against the shard's footer index on every read.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "use ShardedFrameStore.create(...) / .open(...) / .ingest(...)"
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def _blank(cls) -> "ShardedFrameStore":
        self = object.__new__(cls)
        #: guards the view/neighbor caches -- thread-executor prefetch
        #: workers share one store object across ranks (reentrant: the
        #: cache-miss path of neighbor_tables calls get_frames)
        self._mu = threading.RLock()
        self._views: "OrderedDict[int, _ShardView]" = OrderedDict()
        self._active_fh = None
        self._nb_cache: "OrderedDict[int, NeighborTable]" = OrderedDict()
        self._nb_key: Optional[tuple[float, int]] = None
        self.max_open_shards = 8
        self.neighbor_cache_frames = 1024
        self.validate = True
        self.recovered_frames = 0
        return self

    @classmethod
    def create(
        cls,
        path: str,
        *,
        species: np.ndarray,
        cell: Cell,
        shard_capacity: int = 1024,
        name: str = "framestore",
        max_open_shards: int = 8,
        validate: bool = True,
    ) -> "ShardedFrameStore":
        """Create a new, empty store directory (must not already hold one)."""
        if shard_capacity < 1:
            raise ValueError("shard_capacity must be >= 1")
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, _MANIFEST)
        if os.path.exists(manifest_path):
            raise FileExistsError(f"{path} already holds a frame store")
        self = cls._blank()
        self.path = os.path.abspath(path)
        self.mode = "a"
        self.name = str(name)
        self.species = np.asarray(species, dtype=np.int64)
        self.cell = Cell(np.asarray(cell.lengths, dtype=np.float64))
        self.shard_capacity = int(shard_capacity)
        self.shards: list[_ShardMeta] = []
        self.max_open_shards = int(max_open_shards)
        self.validate = bool(validate)
        self._write_manifest()
        return self

    @classmethod
    def open(
        cls,
        path: str,
        mode: str = "r",
        *,
        recover: bool = False,
        max_open_shards: int = 8,
        validate: bool = True,
    ) -> "ShardedFrameStore":
        """Open an existing store.

        Validation is fail-closed: a torn final shard, a truncated or
        mismatched footer index, or a manifest/shard CRC disagreement
        raises :class:`FrameStoreCorrupt`.  With ``recover=True`` the
        longest valid prefix of shards is kept instead, the invalid tail
        is deleted, and the manifest is rewritten; ``recovered_frames``
        counts what was dropped.
        """
        if mode not in ("r", "a"):
            raise ValueError("mode must be 'r' or 'a'")
        manifest_path = os.path.join(path, _MANIFEST)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise FileNotFoundError(f"no frame store at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise FrameStoreCorrupt(f"unreadable manifest: {exc}") from exc
        if manifest.get("schema") != SCHEMA:
            raise FrameStoreCorrupt(
                f"unknown schema {manifest.get('schema')!r} (expected {SCHEMA})"
            )
        self = cls._blank()
        self.path = os.path.abspath(path)
        self.mode = mode
        self.name = str(manifest["name"])
        self.species = np.asarray(manifest["species"], dtype=np.int64)
        self.cell = Cell(np.asarray(manifest["cell_lengths"], dtype=np.float64))
        self.shard_capacity = int(manifest["shard_capacity"])
        self.shards = [_ShardMeta.from_dict(d) for d in manifest["shards"]]
        self.max_open_shards = int(max_open_shards)
        self.validate = bool(validate)
        n_atoms = int(manifest["n_atoms"])
        if self.species.shape != (n_atoms,):
            raise FrameStoreCorrupt(
                f"species length {self.species.size} != n_atoms {n_atoms}"
            )
        self._validate_layout(recover=recover)
        return self

    @classmethod
    def ingest(
        cls,
        path: str,
        source,
        *,
        shard_capacity: int = 1024,
        chunk_frames: int = 256,
        name: Optional[str] = None,
        **kwargs,
    ) -> "ShardedFrameStore":
        """Create a store at ``path`` and stream every frame of ``source``
        (any :class:`~repro.data.source.FrameSource`) into it."""
        self = cls.create(
            path,
            species=source.species,
            cell=source.cell,
            shard_capacity=shard_capacity,
            name=name if name is not None else getattr(source, "name", "framestore"),
            **kwargs,
        )
        self.append_source(source, chunk_frames=chunk_frames)
        return self

    # -- geometry -------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return int(self.species.size)

    @property
    def n_frames(self) -> int:
        return sum(s.n_frames for s in self.shards)

    @property
    def n_species(self) -> int:
        return int(self.species.max()) + 1 if self.species.size else 0

    @property
    def record_elems(self) -> int:
        return _record_elems(self.n_atoms)

    @property
    def record_bytes(self) -> int:
        return self.record_elems * 8

    def __len__(self) -> int:
        return self.n_frames

    # -- manifest / layout ---------------------------------------------
    def _write_manifest(self) -> None:
        atomic_write_json(
            os.path.join(self.path, _MANIFEST),
            {
                "schema": SCHEMA,
                "name": self.name,
                "n_atoms": self.n_atoms,
                "shard_capacity": self.shard_capacity,
                "species": [int(s) for s in self.species],
                "cell_lengths": [float(x) for x in self.cell.lengths],
                "n_frames": self.n_frames,
                "shards": [s.as_dict() for s in self.shards],
            },
        )

    def _shard_path(self, meta: _ShardMeta) -> str:
        return os.path.join(self.path, meta.file)

    def _expected_size(self, meta: _ShardMeta) -> int:
        size = _HEADER_BYTES + meta.n_frames * self.record_bytes
        if meta.sealed:
            size += 4 * meta.n_frames + _TRAILER_BYTES
        return size

    def _check_shard(self, meta: _ShardMeta) -> None:
        """Structural validation of one shard file (cheap: header, size,
        footer index; the payload CRC scan lives in :meth:`verify`)."""
        path = self._shard_path(meta)
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise FrameStoreCorrupt(f"missing shard file: {exc}", meta.file)
        expected = self._expected_size(meta)
        if size != expected:
            kind = "torn shard" if size < expected else "oversized shard"
            raise FrameStoreCorrupt(
                f"{kind}: {size} bytes on disk, manifest expects {expected} "
                f"({meta.n_frames} frames)",
                meta.file,
            )
        with open(path, "rb") as fh:
            header = fh.read(_HEADER_BYTES)
            if len(header) < _HEADER_BYTES:
                raise FrameStoreCorrupt("truncated header", meta.file)
            magic, version, n_atoms, capacity, rec, _ = struct.unpack(
                _HEADER_FMT, header
            )
            if magic != _HEADER_MAGIC:
                raise FrameStoreCorrupt("bad shard magic", meta.file)
            if version != _VERSION:
                raise FrameStoreCorrupt(f"unknown shard version {version}", meta.file)
            if n_atoms != self.n_atoms or rec != self.record_elems:
                raise FrameStoreCorrupt(
                    f"geometry mismatch (n_atoms {n_atoms}, record {rec})",
                    meta.file,
                )
            if capacity != self.shard_capacity:
                raise FrameStoreCorrupt(
                    f"shard capacity {capacity} != manifest {self.shard_capacity}",
                    meta.file,
                )
            if meta.sealed:
                if meta.n_frames != self.shard_capacity:
                    raise FrameStoreCorrupt(
                        f"sealed shard holds {meta.n_frames} frames, "
                        f"capacity is {self.shard_capacity}",
                        meta.file,
                    )
                fh.seek(_HEADER_BYTES + meta.n_frames * self.record_bytes)
                table = fh.read(4 * meta.n_frames)
                trailer = fh.read(_TRAILER_BYTES)
                if len(table) < 4 * meta.n_frames or len(trailer) < _TRAILER_BYTES:
                    raise FrameStoreCorrupt("truncated footer index", meta.file)
                payload_crc, table_crc, count, fmagic = struct.unpack(
                    _TRAILER_FMT, trailer
                )
                if fmagic != _FOOTER_MAGIC:
                    raise FrameStoreCorrupt("bad footer magic", meta.file)
                if count != meta.n_frames:
                    raise FrameStoreCorrupt(
                        f"footer frame count {count} != manifest {meta.n_frames}",
                        meta.file,
                    )
                if zlib.crc32(table) != table_crc:
                    raise FrameStoreCorrupt("footer CRC table corrupt", meta.file)
                if payload_crc != meta.payload_crc or table_crc != meta.table_crc:
                    raise FrameStoreCorrupt(
                        "manifest/shard CRC mismatch", meta.file
                    )
            else:
                crcs = meta.frame_crcs or []
                if len(crcs) != meta.n_frames:
                    raise FrameStoreCorrupt(
                        f"manifest carries {len(crcs)} frame CRCs for "
                        f"{meta.n_frames} active frames",
                        meta.file,
                    )

    def _validate_layout(self, recover: bool) -> None:
        """Validate every shard; fail closed or trim to the valid prefix."""
        for i, meta in enumerate(self.shards):
            if not meta.sealed and i != len(self.shards) - 1:
                exc: Exception = FrameStoreCorrupt(
                    "unsealed shard before the tail", meta.file
                )
            else:
                try:
                    self._check_shard(meta)
                    continue
                except FrameStoreCorrupt as e:
                    exc = e
            if not recover:
                raise exc
            # recovery: keep the valid prefix, delete the rest
            dropped = self.shards[i:]
            self.recovered_frames = sum(s.n_frames for s in dropped)
            self.shards = self.shards[:i]
            for meta in dropped:
                try:
                    os.remove(self._shard_path(meta))
                except OSError:
                    pass
            if self.mode == "a":
                self._write_manifest()
            return

    def verify(self) -> None:
        """Full payload CRC scan of every shard (reads everything once);
        raises :class:`FrameStoreCorrupt` on the first mismatch."""
        for i, meta in enumerate(self.shards):
            self._check_shard(meta)
            view = self._view(i)
            payload = view.records.tobytes()
            if meta.payload_crc != zlib.crc32(payload):
                raise FrameStoreCorrupt("payload CRC mismatch", meta.file)

    # -- appending ------------------------------------------------------
    def _require_writable(self) -> None:
        if self.mode != "a":
            raise PermissionError("store opened read-only (mode='r')")

    def _open_active(self, meta: _ShardMeta) -> None:
        path = self._shard_path(meta)
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(
                    struct.pack(
                        _HEADER_FMT,
                        _HEADER_MAGIC,
                        _VERSION,
                        self.n_atoms,
                        self.shard_capacity,
                        self.record_elems,
                        b"\0" * 20,
                    )
                )
        self._active_fh = open(path, "r+b")
        self._active_fh.seek(0, os.SEEK_END)

    def _active_shard(self) -> _ShardMeta:
        """The writable tail shard, creating a fresh one when needed."""
        if self.shards and not self.shards[-1].sealed:
            meta = self.shards[-1]
        else:
            meta = _ShardMeta(
                file=_shard_name(len(self.shards)),
                n_frames=0,
                sealed=False,
                payload_crc=0,
                frame_crcs=[],
            )
            self.shards.append(meta)
        if self._active_fh is None:
            self._open_active(meta)
        return meta

    def _seal(self, meta: _ShardMeta) -> None:
        """Append the footer index to a full shard and mark it sealed."""
        table = np.asarray(meta.frame_crcs, dtype="<u4").tobytes()
        table_crc = zlib.crc32(table)
        self._active_fh.write(table)
        self._active_fh.write(
            struct.pack(
                _TRAILER_FMT,
                meta.payload_crc,
                table_crc,
                meta.n_frames,
                _FOOTER_MAGIC,
            )
        )
        self._active_fh.flush()
        os.fsync(self._active_fh.fileno())
        self._active_fh.close()
        self._active_fh = None
        meta.sealed = True
        meta.table_crc = table_crc
        meta.frame_crcs = None

    def append(
        self,
        positions: np.ndarray,
        energies: np.ndarray,
        forces: np.ndarray,
        temperatures: Optional[np.ndarray] = None,
    ) -> int:
        """Append a block of labeled frames; returns the new ``n_frames``.

        Frames are packed into the active shard, shards seal as they
        fill, and the manifest is rewritten once per call -- so a crash
        can tear at most the records appended by the interrupted call.
        """
        self._require_writable()
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        energies = np.ascontiguousarray(energies, dtype=np.float64)
        forces = np.ascontiguousarray(forces, dtype=np.float64)
        if positions.ndim != 3 or positions.shape[1:] != (self.n_atoms, 3):
            raise ValueError(
                f"positions must be (F, {self.n_atoms}, 3); got {positions.shape}"
            )
        f = positions.shape[0]
        if energies.shape != (f,) or forces.shape != positions.shape:
            raise ValueError("energies/forces shape mismatch")
        if temperatures is None:
            temperatures = np.zeros(f)
        temperatures = np.ascontiguousarray(temperatures, dtype=np.float64)
        if temperatures.shape != (f,):
            raise ValueError("temperatures shape mismatch")

        records = np.empty((f, self.record_elems), dtype="<f8")
        n3 = self.n_atoms * 3
        records[:, :n3] = positions.reshape(f, n3)
        records[:, n3 : 2 * n3] = forces.reshape(f, n3)
        records[:, 2 * n3] = energies
        records[:, 2 * n3 + 1] = temperatures

        with self._mu:
            for row in records:
                meta = self._active_shard()
                raw = row.tobytes()
                self._active_fh.write(raw)
                meta.frame_crcs.append(zlib.crc32(raw))
                meta.payload_crc = zlib.crc32(raw, meta.payload_crc)
                meta.n_frames += 1
                self._invalidate_view(len(self.shards) - 1)
                if meta.n_frames == self.shard_capacity:
                    self._seal(meta)
            if self._active_fh is not None:
                self._active_fh.flush()
            self._write_manifest()
            return self.n_frames

    def append_dataset(self, dataset: Dataset) -> int:
        """Append every frame of an in-memory dataset (geometry-checked)."""
        if not np.array_equal(
            np.asarray(dataset.species, dtype=np.int64), self.species
        ):
            raise ValueError("dataset species differ from the store's")
        if not np.allclose(dataset.cell.lengths, self.cell.lengths):
            raise ValueError("dataset cell differs from the store's")
        return self.append(
            dataset.positions, dataset.energies, dataset.forces,
            dataset.temperatures,
        )

    def append_source(self, source, chunk_frames: int = 256) -> int:
        """Stream every frame of any frame source in bounded chunks."""
        n = source.n_frames
        for lo in range(0, n, int(chunk_frames)):
            idx = np.arange(lo, min(lo + int(chunk_frames), n))
            frames = source.get_frames(idx)
            self.append(
                frames.positions, frames.energies, frames.forces,
                frames.temperatures,
            )
        return self.n_frames

    def flush(self) -> None:
        """Push buffered records and the manifest to disk."""
        if self._active_fh is not None:
            self._active_fh.flush()
            os.fsync(self._active_fh.fileno())
        self._write_manifest()

    # -- reading --------------------------------------------------------
    def _invalidate_view(self, shard_index: int) -> None:
        view = self._views.pop(shard_index, None)
        if view is not None:
            view.close()

    def _view(self, shard_index: int) -> _ShardView:
        """The mmap view of one shard, LRU-bounded at ``max_open_shards``."""
        view = self._views.get(shard_index)
        if view is not None:
            self._views.move_to_end(shard_index)
            return view
        meta = self.shards[shard_index]
        if not meta.sealed and self._active_fh is not None:
            # records may still sit in the userspace file buffer; an mmap
            # sees the kernel's view only
            self._active_fh.flush()
        view = _ShardView(self._shard_path(meta), meta.n_frames, self.record_elems)
        self._views[shard_index] = view
        while len(self._views) > self.max_open_shards:
            _, old = self._views.popitem(last=False)
            old.close()
        return view

    def _frame_crc(self, shard_index: int, offset: int) -> int:
        meta = self.shards[shard_index]
        if meta.sealed:
            view = self._view(shard_index)
            start = _HEADER_BYTES + meta.n_frames * self.record_bytes
            return int(
                np.frombuffer(
                    view._mm, dtype="<u4", count=1, offset=start + 4 * offset
                )[0]
            )
        return int(meta.frame_crcs[offset])

    def get_frames(self, indices):
        """Materialize the requested frames (in the requested order).

        Returns a :class:`~repro.data.source.Frames` block of fresh
        arrays; only the shards the indices touch are mapped, and each
        fetched record's CRC32 is checked against the shard's footer
        index (``validate=False`` skips the check)."""
        from .source import Frames  # deferred: source imports this module

        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        n_total = self.n_frames
        if indices.size and (indices.min() < 0 or indices.max() >= n_total):
            raise IndexError(
                f"frame index out of range (store holds {n_total} frames)"
            )
        f = indices.size
        n3 = self.n_atoms * 3
        records = np.empty((f, self.record_elems), dtype=np.float64)
        shard_of = indices // self.shard_capacity
        offset_of = indices - shard_of * self.shard_capacity
        # group by shard so each mapping is touched once per call
        with self._mu:
            for shard_index in np.unique(shard_of):
                view = self._view(int(shard_index))
                sel = np.flatnonzero(shard_of == shard_index)
                offs = offset_of[sel]
                records[sel] = view.records[offs]
                if self.validate:
                    for pos, off in zip(sel, offs):
                        expected = self._frame_crc(int(shard_index), int(off))
                        actual = zlib.crc32(records[pos].astype("<f8").tobytes())
                        if actual != expected:
                            raise FrameStoreCorrupt(
                                f"frame {int(indices[pos])} CRC mismatch "
                                f"(record {int(off)})",
                                self.shards[int(shard_index)].file,
                            )
        return Frames(
            positions=records[:, :n3].reshape(f, self.n_atoms, 3),
            forces=records[:, n3 : 2 * n3].reshape(f, self.n_atoms, 3),
            energies=records[:, 2 * n3].copy(),
            temperatures=records[:, 2 * n3 + 1].copy(),
        )

    def neighbor_tables(self, indices, rcut: float, nmax: int) -> NeighborArrays:
        """Padded neighbor tables for the requested frames.

        The frames missing from a bounded per-frame LRU (keyed on the
        (rcut, nmax) in effect) are read once and built in one
        :func:`~repro.md.neighbor.batch_neighbor_tables` call -- the
        kernel the in-memory dataset uses, so the tables are the same
        bytes.  Revisits across epochs hit the cache, and the cache never
        outgrows ``neighbor_cache_frames`` entries."""
        order = np.asarray(indices, dtype=np.int64).reshape(-1).tolist()
        key = (float(rcut), int(nmax))
        with self._mu:
            if self._nb_key != key:
                self._nb_cache.clear()
                self._nb_key = key
            tables = {t: self._nb_cache.get(t) for t in order}
            for t, table in tables.items():
                if table is not None:
                    self._nb_cache.move_to_end(t)
            missing = [t for t, table in tables.items() if table is None]
            if missing:
                frames = self.get_frames(np.asarray(missing, dtype=np.int64))
                built = batch_neighbor_tables(frames.positions, self.cell, rcut, nmax)
                for k, t in enumerate(missing):
                    tables[t] = self._nb_cache[t] = built.frame(k)
                while len(self._nb_cache) > self.neighbor_cache_frames:
                    self._nb_cache.popitem(last=False)
        return NeighborArrays.stack([tables[t] for t in order], rcut)

    # -- statistics / identity -----------------------------------------
    def energies_array(self) -> np.ndarray:
        """All frame energies, read shard by shard ((F,) floats -- small
        even at millions of frames)."""
        out = np.empty(self.n_frames)
        lo = 0
        with self._mu:
            for i, meta in enumerate(self.shards):
                view = self._view(i)
                n3 = self.n_atoms * 3
                out[lo : lo + meta.n_frames] = view.records[:, 2 * n3]
                lo += meta.n_frames
        return out

    def energy_per_atom_stats(self) -> tuple[float, float]:
        """(mean, std) of energy per atom -- same arithmetic (and bits)
        as :meth:`Dataset.energy_per_atom_stats` on equal frames."""
        e = self.energies_array() / self.n_atoms
        return float(e.mean()), float(e.std())

    def fingerprint(self) -> str:
        """Content identity: sha256 over geometry plus every shard's
        payload CRC -- equal stores (same frames, same shard capacity)
        fingerprint equal without reading frame data."""
        h = hashlib.sha256()
        h.update(SCHEMA.encode())
        h.update(self.species.tobytes())
        h.update(np.asarray(self.cell.lengths, dtype=np.float64).tobytes())
        h.update(str(self.shard_capacity).encode())
        for meta in self.shards:
            h.update(f"{meta.n_frames}:{meta.payload_crc};".encode())
        return h.hexdigest()

    def cache_stats(self) -> dict:
        """Residency accounting for the RSS-bound benchmark."""
        return {
            "open_shards": len(self._views),
            "max_open_shards": self.max_open_shards,
            "mapped_bytes": sum(
                self.shards[i].n_frames * self.record_bytes for i in self._views
            ),
            "neighbor_cache_frames": len(self._nb_cache),
        }

    # -- materialization (explicitly bounded) ---------------------------
    def to_dataset(self, indices=None) -> Dataset:
        """Materialize (a slice of) the store as an in-memory dataset."""
        if indices is None:
            indices = np.arange(self.n_frames)
        frames = self.get_frames(indices)
        return Dataset(
            name=self.name,
            positions=frames.positions,
            energies=frames.energies,
            forces=frames.forces,
            species=self.species,
            cell=self.cell,
            temperatures=frames.temperatures,
        )

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release every mapping and file handle (reopen-safe)."""
        with self._mu:
            for view in self._views.values():
                view.close()
            self._views = OrderedDict()
            if self._active_fh is not None:
                self._active_fh.flush()
                self._active_fh.close()
                self._active_fh = None

    def __enter__(self) -> "ShardedFrameStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- pickling (process-executor prefetch ships the handle, not data) -
    def __getstate__(self) -> dict:
        return {
            "path": self.path,
            "max_open_shards": self.max_open_shards,
            "validate": self.validate,
            "neighbor_cache_frames": self.neighbor_cache_frames,
        }

    def __setstate__(self, state: dict) -> None:
        other = ShardedFrameStore.open(
            state["path"],
            mode="r",
            max_open_shards=state["max_open_shards"],
            validate=state["validate"],
        )
        self.__dict__.update(other.__dict__)
        self.neighbor_cache_frames = state["neighbor_cache_frames"]

    def __repr__(self) -> str:
        return (
            f"ShardedFrameStore(path={self.path!r}, frames={self.n_frames}, "
            f"shards={len(self.shards)}, capacity={self.shard_capacity}, "
            f"mode={self.mode!r})"
        )
