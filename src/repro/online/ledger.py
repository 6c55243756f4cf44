"""Label accounting and swap history for the closed loop.

The economics of active learning is the ratio of reference-potential
calls *made* to reference calls *avoided* by the uncertainty gate; the
progress of online learning is the held-out error at each hot swap.
Both ledgers are plain counters/records here so a caller can serialise
them as they are and a resumed loop can restore them bit-exactly from a
checkpoint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..analysis.concurrency import TrackedLock


@dataclass
class SwapRecord:
    """One successful live model swap."""

    #: monotonic model version the service now serves
    version: int
    #: seconds since the loop run started (perf-counter clock)
    wall_s: float
    #: held-out committee force RMSE of the promoted weights
    force_rmse: float
    #: labeled frames the promoted weights had been trained on
    trained_frames: int
    #: training rounds completed when the swap happened
    round_index: int

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SwapRecord":
        return cls(
            version=int(d["version"]),
            wall_s=float(d["wall_s"]),
            force_rmse=float(d["force_rmse"]),
            trained_frames=int(d["trained_frames"]),
            round_index=int(d["round_index"]),
        )


class LabelLedger:
    """Thread-safe labels-requested / labels-avoided accounting.

    Updated by the gate and labeler stages from their own threads;
    snapshot with :meth:`as_dict`.  Equality compares the counter values
    (what the crash-resume certification asserts on).
    """

    _FIELDS = (
        "candidates", "requested", "labeled", "avoided",
        "segments", "gate_errors", "mixed_version_batches",
    )

    def __init__(self):
        self._lock = TrackedLock("online.ledger")
        for name in self._FIELDS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------
    def record_gate(self, decision) -> None:
        """Account one :class:`~repro.online.GateDecision`."""
        with self._lock:
            self.segments += 1
            self.candidates += decision.n_candidates
            self.requested += decision.n_selected
            self.avoided += decision.labels_avoided
            if decision.mixed_version:
                self.mixed_version_batches += 1

    def record_labels(self, n: int) -> None:
        with self._lock:
            self.labeled += int(n)

    def record_gate_error(self) -> None:
        with self._lock:
            self.gate_errors += 1

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        with self._lock:
            return {name: int(getattr(self, name)) for name in self._FIELDS}

    def load_dict(self, d: dict) -> None:
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, int(d.get(name, 0)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelLedger):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"LabelLedger({pairs})"
