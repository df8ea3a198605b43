"""Content-addressed on-disk artifact store with corruption-safe loads.

Layout::

    <root>/objects/<key>.art

where ``key`` is a slash-separated content address (dataset key /
layer name, see :mod:`repro.cache.keys`).  Each ``.art`` file is a
self-verifying container::

    magic "RART1\\n" | 4-byte BE header length | header JSON | payload

with the header carrying ``{"kind", "sha256", "nbytes"}`` for the
payload.  The durability discipline:

* **Atomic writes** — containers are staged to a same-directory temp
  file, fsynced, then ``os.replace``d into place.  Readers see either
  the old artifact or the new one, never a torn write; concurrent
  writers of the same key are last-writer-wins with both versions
  valid.
* **Corruption-safe loads** — any mismatch (bad magic, short file,
  checksum, undecodable payload) is treated as a *miss*: the entry is
  dropped, ``stats.corrupt_dropped`` is incremented, and the caller
  transparently recomputes.  A damaged cache can cost time, never
  correctness.
* **Eviction** — least-recently-modified artifacts are removed first
  until the store fits a byte budget (`evict`); `clear` empties it.
* **Concurrency-tolerant inventory** — ``entries``/``clear``/``evict``
  walk the tree with :func:`os.walk` (which ignores directories that
  vanish mid-walk) and treat files deleted between listing and stat as
  already gone: a concurrent process clearing or evicting the same
  store is never an error, just a smaller inventory.
* **Stale staging sweep** — temp names embed the writer's pid, so
  opening a store reclaims ``.tmp-*`` files left by *dead* writers
  (SIGKILL mid-``put``) while leaving live writers' staging files
  alone.

No wall-clock reads happen here (the package is registered in the
determinism guards): recency comes from filesystem mtimes, and temp
names from the pid plus a process-local counter.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.cache import serde
from repro.cache.serde import SerdeError

__all__ = [
    "ArtifactStore",
    "ArtifactInfo",
    "StoreStats",
    "StoreInfo",
    "CorruptArtifact",
]

_MAGIC = b"RART1\n"
_SUFFIX = ".art"
_TMP_MARKER = ".tmp-"
_HEADER_LEN_BYTES = 4
#: Upper bound on a sane header, to reject garbage length prefixes.
_MAX_HEADER_BYTES = 64 * 1024

_tmp_counter = itertools.count()


class CorruptArtifact(ValueError):
    """An on-disk container failed validation (torn/garbled/truncated)."""


def _tmp_writer_pid(name: str) -> int | None:
    """The pid embedded in a staging-file name, or ``None`` if garbled."""
    marker = name.find(_TMP_MARKER)
    if marker < 0:
        return None
    pid, _, _counter = name[marker + len(_TMP_MARKER):].partition("-")
    try:
        return int(pid)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Signal-0 liveness probe; unknown errors count as alive (safe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def _sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _validate_key(key: str) -> str:
    if not key or len(key) > 512:
        raise ValueError(f"bad artifact key {key!r}")
    for part in key.split("/"):
        if not part or part.startswith("."):
            raise ValueError(f"bad artifact key {key!r}")
        if not all(c.isalnum() or c in "._-" for c in part):
            raise ValueError(f"bad artifact key {key!r}")
    return key


@dataclass
class StoreStats:
    """Session counters (process-local, not persisted)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_dropped: int = 0
    evicted: int = 0

    def reject_hit(self) -> None:
        """Book the last hit as a miss: its reader rejected the artifact
        (stored under another kind, in an older form, or undecodable)."""
        self.hits -= 1
        self.misses += 1

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_dropped": self.corrupt_dropped,
            "evicted": self.evicted,
        }


@dataclass(frozen=True)
class ArtifactInfo:
    """One stored artifact's identity and size."""

    key: str
    kind: str
    nbytes: int
    mtime: float


@dataclass(frozen=True)
class StoreInfo:
    """Aggregate view for ``repro cache info``."""

    root: str
    n_artifacts: int
    total_bytes: int
    by_kind: dict[str, int] = field(default_factory=dict)
    datasets: tuple[str, ...] = ()


class ArtifactStore:
    """A content-addressed artifact cache rooted at a directory."""

    def __init__(self, root: str | Path) -> None:
        """Open the store at ``root``.  Opening creates nothing: the
        first write creates the directories it needs, and a store that
        was never written reads as empty."""
        self.root = Path(root)
        self._objects = self.root / "objects"
        self.stats = StoreStats()
        self._sweep_stale_tmp()

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self._objects / (_validate_key(key) + _SUFFIX)

    # -- write ---------------------------------------------------------------

    def put(self, key: str, obj: Any, kind: str) -> Path:
        """Encode and atomically store one artifact; returns its path."""
        return self.put_bytes(key, serde.encode(obj, kind), kind)

    def put_bytes(self, key: str, payload: bytes, kind: str) -> Path:
        """Atomically store pre-encoded payload bytes under ``key``."""
        if kind not in serde.KINDS:
            raise SerdeError(f"unknown artifact kind {kind!r}")
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "kind": kind,
                "nbytes": len(payload),
                "sha256": _sha256_hex(payload),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("ascii")
        tmp = path.parent / (
            path.name + f"{_TMP_MARKER}{os.getpid()}-{next(_tmp_counter)}"
        )
        try:
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(len(header).to_bytes(_HEADER_LEN_BYTES, "big"))
                fh.write(header)
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # replace failed; don't leak staging files
                tmp.unlink(missing_ok=True)
        self.stats.writes += 1
        return path

    # -- read ----------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """Decoded artifact, or ``None`` on miss *or* corruption."""
        raw = self.get_bytes(key)
        if raw is None:
            return None
        payload, kind = raw
        try:
            return serde.decode(payload, kind)
        except SerdeError:
            # Checksummed container decoded but the payload codec choked
            # (e.g. a stale kind after a code change): drop and recompute.
            self._drop_corrupt(key)
            return None

    def get_bytes(self, key: str) -> tuple[bytes, str] | None:
        """Validated ``(payload, kind)`` or ``None`` (miss/corrupt)."""
        entry = self.get_verified(key)
        return None if entry is None else entry[:2]

    def get_verified(self, key: str) -> tuple[bytes, str, str] | None:
        """Validated ``(payload, kind, sha256)`` or ``None`` (miss/corrupt).

        ``sha256`` is the header digest the payload was just checked
        against: a caller that recorded it at write time pins the exact
        payload bytes with it, without hashing or decoding them again.
        The payload is read into a buffer of its own, so a caller may
        keep views of it without holding the rest of the container.
        """
        path = self._path(key)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        try:
            with fh:
                entry = self._read_container(fh)
        except CorruptArtifact:
            self._drop_corrupt(key)
            return None
        self.stats.hits += 1
        # Touch on read: eviction orders by mtime, so without this a
        # hot artifact written long ago is evicted before a cold one
        # written yesterday (FIFO, not LRU).  A racing evict/cleanup
        # may have unlinked the file since we read it — losing the
        # touch then is harmless, the artifact is gone anyway.
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    @classmethod
    def _read_container(cls, fh: BinaryIO) -> tuple[bytes, str, str]:
        """``(payload, kind, sha256)`` of an open container, checked.

        The header is read first; the file must then hold exactly the
        ``nbytes`` it claims after it, and only those are read."""
        header, start = cls._read_header(fh)
        kind, nbytes, digest = header["kind"], header["nbytes"], header["sha256"]
        size = os.fstat(fh.fileno()).st_size
        if size - start != nbytes:
            raise CorruptArtifact(
                f"payload is {size - start} bytes, header claims {nbytes}"
            )
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise CorruptArtifact(f"payload ends after {len(payload)} bytes")
        if _sha256_hex(payload) != digest:
            raise CorruptArtifact("payload checksum mismatch")
        if kind not in serde.KINDS:
            raise CorruptArtifact(f"unknown payload kind {kind!r}")
        return payload, kind, digest

    def _drop_corrupt(self, key: str) -> None:
        self.stats.corrupt_dropped += 1
        self.stats.misses += 1
        self._path(key).unlink(missing_ok=True)

    # -- inventory -----------------------------------------------------------

    def _iter_files(self) -> "list[Path]":
        """Every file under ``objects/``, tolerant of concurrent deletion.

        ``os.walk`` silently skips directories that vanish mid-walk
        (its default ``onerror`` swallows the ``OSError``), unlike
        ``Path.rglob`` which can propagate when racing another
        process's ``clear``/``evict``/``_prune_empty_dirs``.
        """
        found: list[Path] = []
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            found.extend(Path(dirpath) / name for name in filenames)
        return sorted(found)

    def _sweep_stale_tmp(self) -> int:
        """Reclaim staging files abandoned by dead writers; returns count.

        A writer SIGKILLed between staging and ``os.replace`` leaks a
        ``<name>.tmp-<pid>-<n>`` file.  The pid in the name tells us
        whether the writer can still complete: live pids (including our
        own other threads) are left alone, dead or unparsable ones are
        removed.  Runs on store open, so a crashed run's debris is gone
        before the resume writes anything.
        """
        removed = 0
        for path in self._iter_files():
            if _TMP_MARKER not in path.name:
                continue
            pid = _tmp_writer_pid(path.name)
            if pid == os.getpid() or (pid is not None and _pid_alive(pid)):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def has(self, key: str) -> bool:
        """Cheap existence probe (full validation happens on ``get``)."""
        return self._path(key).exists()

    def delete(self, key: str) -> bool:
        path = self._path(key)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> list[str]:
        return [entry.key for entry in self.entries()]

    def entries(self) -> list[ArtifactInfo]:
        """All valid-looking artifacts, sorted by key.

        Artifacts deleted by a concurrent process between listing and
        stat are simply skipped — a racing ``clear``/``evict``
        elsewhere shrinks the inventory, never raises here.
        """
        found: list[ArtifactInfo] = []
        for path in self._iter_files():
            if not path.name.endswith(_SUFFIX) or _TMP_MARKER in path.name:
                continue
            key = str(path.relative_to(self._objects))[: -len(_SUFFIX)]
            key = key.replace(os.sep, "/")
            try:
                stat = path.stat()
                with open(path, "rb") as fh:
                    header, _start = self._read_header(fh)
            except (OSError, CorruptArtifact):
                continue
            found.append(
                ArtifactInfo(
                    key=key,
                    kind=header["kind"],
                    nbytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return found

    @staticmethod
    def _read_header(fh: BinaryIO) -> tuple[dict, int]:
        """``(header, payload offset)`` read from the start of a container;
        a header of any other shape than ``kind``/``nbytes``/``sha256``
        is a :class:`CorruptArtifact`, never an escaping exception."""
        base = len(_MAGIC) + _HEADER_LEN_BYTES
        prefix = fh.read(base)
        if len(prefix) < base or not prefix.startswith(_MAGIC):
            raise CorruptArtifact("bad magic or truncated container")
        header_len = int.from_bytes(prefix[len(_MAGIC):], "big")
        if not 0 < header_len <= _MAX_HEADER_BYTES:
            raise CorruptArtifact(f"implausible header length {header_len}")
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise CorruptArtifact("truncated header")
        try:
            header = json.loads(raw.decode("ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptArtifact(f"unreadable header: {exc}") from exc
        if not (
            isinstance(header, dict)
            and isinstance(header.get("kind"), str)
            and type(header.get("nbytes")) is int  # not a bool either
            and isinstance(header.get("sha256"), str)
        ):
            raise CorruptArtifact("header lacks a kind, nbytes or sha256")
        return header, base + header_len

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def info(self) -> StoreInfo:
        entries = self.entries()
        by_kind: dict[str, int] = {}
        datasets: set[str] = set()
        for entry in entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + entry.nbytes
            datasets.add(entry.key.split("/", 1)[0])
        return StoreInfo(
            root=str(self.root),
            n_artifacts=len(entries),
            total_bytes=sum(e.nbytes for e in entries),
            by_kind=by_kind,
            datasets=tuple(sorted(datasets)),
        )

    # -- maintenance ---------------------------------------------------------

    def evict(self, max_bytes: int) -> list[str]:
        """Drop least-recently-*used* artifacts until the store fits
        ``max_bytes``; returns the evicted keys (coldest first).

        Reads touch their artifact's mtime (see :meth:`get_verified`), so
        recency means last access, not last write; ``(mtime, key)``
        keeps the order total when timestamps tie."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = sorted(self.entries(), key=lambda e: (e.mtime, e.key))
        total = sum(e.nbytes for e in entries)
        removed: list[str] = []
        for entry in entries:
            if total <= max_bytes:
                break
            if self.delete(entry.key):
                total -= entry.nbytes
                removed.append(entry.key)
                self.stats.evicted += 1
        self._prune_empty_dirs()
        return removed

    def clear(self) -> int:
        """Remove every artifact (and stale temp files); returns count."""
        removed = 0
        for path in self._iter_files():
            stale_tmp = _TMP_MARKER in path.name
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent process got there first
            if not stale_tmp:
                removed += 1
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        for dirpath, _dirnames, _filenames in os.walk(
            self._objects, topdown=False
        ):
            if Path(dirpath) == self._objects:
                continue
            try:
                os.rmdir(dirpath)  # only succeeds when empty
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"
