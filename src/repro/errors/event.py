"""Columnar error-event storage.

A two-year Titan run produces hundreds of thousands of raw console
events (application XIDs echo on *every* node of a job).  The analysis
toolkit is entirely vectorized, so events live in parallel numpy
columns rather than object lists:

====================  =========  ===============================================
column                dtype      meaning
====================  =========  ===============================================
``time``              float64    seconds since the study epoch
``gpu``               int64      GPU id (node slot) reporting the event
``etype``             int16      :class:`ErrorType` code
``structure``         int16      :class:`MemoryStructure` ordinal, −1 if n/a
``job``               int64      batch job id, −1 if none/unknown
``parent``            int64      row index of the parent event, −1 if root
``aux``               int64      type-specific detail (page address, …)
====================  =========  ===============================================

Logs are built incrementally through :class:`EventLogBuilder` and then
frozen; a frozen :class:`EventLog` is immutable and cheap to mask,
merge and sort.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors.xid import ErrorType, from_code
from repro.gpu.k20x import MemoryStructure

__all__ = ["EventLog", "EventLogBuilder", "STRUCTURE_CODES", "structure_from_code"]

#: Stable small-int codes for memory structures (−1 = not applicable).
STRUCTURE_CODES: dict[MemoryStructure, int] = {
    s: i for i, s in enumerate(MemoryStructure)
}
_STRUCTURES_BY_CODE: dict[int, MemoryStructure] = {
    i: s for s, i in STRUCTURE_CODES.items()
}


def structure_from_code(code: int) -> MemoryStructure | None:
    """Inverse of :data:`STRUCTURE_CODES`; −1 maps to None."""
    if code < 0:
        return None
    return _STRUCTURES_BY_CODE[int(code)]


_COLUMNS = ("time", "gpu", "etype", "structure", "job", "parent", "aux")
_DTYPES = {
    "time": np.float64,
    "gpu": np.int64,
    "etype": np.int16,
    "structure": np.int16,
    "job": np.int64,
    "parent": np.int64,
    "aux": np.int64,
}


@dataclass(frozen=True)
class EventLog:
    """Immutable columnar event log, sorted construction not required.

    Use :meth:`sorted_by_time` before temporal analyses that assume
    ordering; filters and selections preserve relative order.
    """

    time: np.ndarray
    gpu: np.ndarray
    etype: np.ndarray
    structure: np.ndarray
    job: np.ndarray
    parent: np.ndarray
    aux: np.ndarray

    def __post_init__(self) -> None:
        n = self.time.shape[0]
        for name in _COLUMNS:
            col = getattr(self, name)
            if col.shape != (n,):
                raise ValueError(f"column {name!r} has shape {col.shape}, want ({n},)")
            col.setflags(write=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls) -> "EventLog":
        return cls(
            **{name: np.empty(0, dtype=_DTYPES[name]) for name in _COLUMNS}
        )

    @classmethod
    def from_arrays(cls, **columns: np.ndarray) -> "EventLog":
        """Build from raw arrays; missing optional columns default to −1."""
        n = np.asarray(columns["time"]).shape[0]
        data = {}
        for name in _COLUMNS:
            if name in columns:
                data[name] = np.asarray(columns[name], dtype=_DTYPES[name]).copy()
            else:
                data[name] = np.full(n, -1, dtype=_DTYPES[name])
        return cls(**data)

    @classmethod
    def concatenate(cls, logs: Sequence["EventLog"]) -> "EventLog":
        """Concatenate several logs (order preserved, no re-sort)."""
        if not logs:
            return cls.empty()
        return cls(
            **{
                name: np.concatenate([getattr(log, name) for log in logs])
                for name in _COLUMNS
            }
        )

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.time.shape[0])

    def __iter__(self) -> Iterator[dict[str, object]]:
        for i in range(len(self)):
            yield self.row(i)

    def row(self, i: int) -> dict[str, object]:
        """One event as a readable dict (for debugging / log rendering)."""
        return {
            "time": float(self.time[i]),
            "gpu": int(self.gpu[i]),
            "etype": from_code(int(self.etype[i])),
            "structure": structure_from_code(int(self.structure[i])),
            "job": int(self.job[i]),
            "parent": int(self.parent[i]),
            "aux": int(self.aux[i]),
        }

    # -- selection --------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "EventLog":
        """Subset by boolean mask or integer index array.

        Mask and index-array indexing already return fresh arrays, so the
        subset owns its columns without a second copy.

        Note: ``parent`` indices refer to rows of the *original* log and
        are not remapped; parent-aware analyses should run before
        selection or use :meth:`select_with_parent_remap`.
        """
        return EventLog(**{name: getattr(self, name)[mask] for name in _COLUMNS})

    def select_with_parent_remap(self, mask: np.ndarray) -> "EventLog":
        """Subset and remap ``parent`` to the new row numbering.

        Parents excluded by the mask become −1 (the child is promoted to
        a root event).
        """
        mask = np.asarray(mask)
        if mask.dtype != bool:
            bool_mask = np.zeros(len(self), dtype=bool)
            bool_mask[mask] = True
            mask = bool_mask
        new_index = np.full(len(self), -1, dtype=np.int64)
        new_index[mask] = np.arange(int(mask.sum()))
        out = self.select(mask)
        parent = out.parent.copy()
        valid = parent >= 0
        remapped = np.where(valid, new_index[np.clip(parent, 0, None)], -1)
        object.__setattr__(out, "parent", remapped)
        remapped.setflags(write=False)
        return out

    def of_type(self, *etypes: ErrorType) -> "EventLog":
        """Events whose type is one of ``etypes``."""
        codes = np.asarray([t.code for t in etypes], dtype=np.int16)
        return self.select(np.isin(self.etype, codes))

    def in_window(self, start: float, end: float) -> "EventLog":
        """Events with ``start <= time < end``."""
        return self.select((self.time >= start) & (self.time < end))

    def sorted_by_time(self) -> "EventLog":
        """Stable sort by timestamp, remapping parent indices."""
        order = np.argsort(self.time, kind="stable")
        inverse = np.empty(len(self), dtype=np.int64)
        inverse[order] = np.arange(len(self))
        out = self.select(order)
        parent = out.parent.copy()
        valid = parent >= 0
        parent[valid] = inverse[parent[valid]]
        object.__setattr__(out, "parent", parent)
        parent.setflags(write=False)
        return out

    def is_sorted(self) -> bool:
        return bool(np.all(np.diff(self.time) >= 0))

    # -- small conveniences used throughout core/ --------------------------------

    def count_by_type(self) -> dict[ErrorType, int]:
        codes, counts = np.unique(self.etype, return_counts=True)
        return {from_code(int(c)): int(n) for c, n in zip(codes, counts)}

    def unique_gpus(self) -> np.ndarray:
        return np.unique(self.gpu)


class EventLogBuilder:
    """Accumulates events cheaply, freezing to an :class:`EventLog`.

    With ``spool_rows`` set, the live Python lists are drained into
    frozen columnar chunks whenever they reach that many rows, so the
    builder's peak footprint is one chunk of lists plus the (much
    denser) numpy chunks — the cascade fan-out at machine scale never
    holds millions of boxed Python ints.  Spooling is invisible to
    callers: row indices returned by :meth:`add` stay global, ``len``
    counts all rows, and :meth:`freeze` concatenates chunks in order,
    producing arrays bit-identical to an unspooled build.
    """

    def __init__(self, *, spool_rows: int | None = None) -> None:
        if spool_rows is not None and spool_rows < 1:
            raise ValueError("spool_rows must be >= 1 or None")
        self._spool_rows = spool_rows
        self._chunks: list[EventLog] = []
        self._frozen_rows = 0
        self._rows: dict[str, list] = {name: [] for name in _COLUMNS}

    def __len__(self) -> int:
        return self._frozen_rows + len(self._rows["time"])

    def _spool(self) -> None:
        """Freeze the live lists into a chunk and clear them."""
        if not self._rows["time"]:
            return
        chunk = EventLog(
            **{
                name: np.asarray(vals, dtype=_DTYPES[name])
                for name, vals in self._rows.items()
            }
        )
        self._chunks.append(chunk)
        self._frozen_rows += len(chunk)
        for vals in self._rows.values():
            vals.clear()

    def _maybe_spool(self) -> None:
        if (
            self._spool_rows is not None
            and len(self._rows["time"]) >= self._spool_rows
        ):
            self._spool()

    def add(
        self,
        time: float,
        gpu: int,
        etype: ErrorType,
        *,
        structure: MemoryStructure | None = None,
        job: int = -1,
        parent: int = -1,
        aux: int = -1,
    ) -> int:
        """Append one event; returns its row index (usable as ``parent``
        for subsequent children)."""
        self._rows["time"].append(float(time))
        self._rows["gpu"].append(int(gpu))
        self._rows["etype"].append(etype.code)
        self._rows["structure"].append(
            -1 if structure is None else STRUCTURE_CODES[structure]
        )
        self._rows["job"].append(int(job))
        self._rows["parent"].append(int(parent))
        self._rows["aux"].append(int(aux))
        index = self._frozen_rows + len(self._rows["time"]) - 1
        self._maybe_spool()
        return index

    def add_children(
        self,
        times: np.ndarray,
        gpus: np.ndarray,
        etype: ErrorType,
        *,
        job: int = -1,
        parent: int = -1,
    ) -> None:
        """Bulk-append same-type child events sharing one job/parent tag.

        Vectorized counterpart of calling :meth:`add` once per child
        with scalar ``job``/``parent`` — used by the cascade echo
        fan-out, where a single parent spawns a child on every other
        GPU of its job allocation.
        """
        times = np.asarray(times, dtype=np.float64)
        gpus = np.asarray(gpus, dtype=np.int64)
        if times.shape != gpus.shape:
            raise ValueError("times and gpus must have matching shapes")
        n = times.shape[0]
        rows = self._rows
        rows["time"].extend(times.tolist())
        rows["gpu"].extend(gpus.tolist())
        rows["etype"].extend([etype.code] * n)
        rows["structure"].extend([-1] * n)
        rows["job"].extend([int(job)] * n)
        rows["parent"].extend([int(parent)] * n)
        rows["aux"].extend([-1] * n)
        self._maybe_spool()

    def extend_frozen(self, log: EventLog) -> None:
        """Adopt an already-frozen log as the next rows, zero-copy.

        The log's columns become a builder chunk directly (no list
        round-trip); its ``parent`` indices are kept verbatim, so they
        stay valid only if the log's rows land at their original offsets
        (extend into an empty builder) or parents are treated as opaque.
        """
        if len(log) == 0:
            return
        self._spool()  # preserve ordering of any pending list rows
        self._chunks.append(log)
        self._frozen_rows += len(log)

    def add_many(
        self,
        times: np.ndarray,
        gpus: np.ndarray,
        etype: ErrorType,
        *,
        structure: MemoryStructure | None = None,
        jobs: np.ndarray | None = None,
        aux: np.ndarray | None = None,
    ) -> None:
        """Bulk-append same-type events (vectorized injector path)."""
        times = np.asarray(times, dtype=np.float64)
        gpus = np.asarray(gpus, dtype=np.int64)
        if times.shape != gpus.shape:
            raise ValueError("times and gpus must have matching shapes")
        n = times.shape[0]
        scode = -1 if structure is None else STRUCTURE_CODES[structure]
        self._rows["time"].extend(times.tolist())
        self._rows["gpu"].extend(gpus.tolist())
        self._rows["etype"].extend([etype.code] * n)
        self._rows["structure"].extend([scode] * n)
        self._rows["job"].extend(
            [-1] * n if jobs is None else np.asarray(jobs, dtype=np.int64).tolist()
        )
        self._rows["parent"].extend([-1] * n)
        self._rows["aux"].extend(
            [-1] * n if aux is None else np.asarray(aux, dtype=np.int64).tolist()
        )
        self._maybe_spool()

    def freeze(self) -> EventLog:
        """Materialize the accumulated rows into an immutable log.

        Spooled chunks concatenate in append order ahead of the live
        rows; values, dtypes and row order are identical to an
        unspooled build.
        """
        residual = EventLog(
            **{
                name: np.asarray(vals, dtype=_DTYPES[name])
                for name, vals in self._rows.items()
            }
        )
        if not self._chunks:
            return residual
        logs = list(self._chunks)
        if len(residual):
            logs.append(residual)
        return EventLog.concatenate(logs)
