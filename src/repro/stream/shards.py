"""Out-of-core telemetry shards: whole-line-aligned files + manifest.

The console emitter can render a 21-month stream as one giant string,
but an honest machine-scale sweep cannot afford that: at scale 4 the
rendered log alone is hundreds of megabytes before the parser even
starts.  This module is the disk-backed alternative — a directory of
*shards*, each a newline-terminated, whole-line-aligned text file,
described by a single ``manifest.json``:

* **whole-line alignment** — a shard always ends exactly after a
  line's trailing ``\\n``, so concatenating the shard payloads in
  manifest order reproduces the monolithic rendering byte for byte and
  no record is ever torn across a shard boundary;
* **atomic writes** — shards and the manifest are staged to a
  same-directory temp file (pid-embedded name), fsynced, then
  ``os.replace``d into place, mirroring the artifact store's
  durability discipline;
* **per-shard SHA-256** — the manifest pins each shard's payload
  digest; readers verify on every pass, so a torn or garbled shard is
  a loud :class:`ShardCorruption`, never silently-wrong statistics.

Readers hold at most one shard in memory at a time; writers buffer at
most ``max_lines_per_shard`` lines.  No wall-clock reads happen here
(the package is registered in the determinism guards): temp names come
from the pid plus a process-local counter.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_SHARD_LINES",
    "MANIFEST_NAME",
    "ShardCorruption",
    "ShardInfo",
    "ShardManifest",
    "write_shards",
    "iter_shard_payloads",
    "read_manifest",
    "iter_shard_lines",
    "iter_shard_texts",
    "reassemble_text",
    "verify_shards",
]

#: Default shard granularity; ~100k console lines is a few MB of text —
#: large enough to amortize per-shard overhead, small enough that one
#: in-flight shard never dominates peak RSS.
DEFAULT_SHARD_LINES: int = 100_000

#: The manifest file's name inside a shard directory.
MANIFEST_NAME: str = "manifest.json"

#: Manifest schema version.
MANIFEST_VERSION: int = 1

_tmp_counter = itertools.count()


class ShardCorruption(ValueError):
    """A shard failed validation against its manifest (torn/garbled)."""


@dataclass(frozen=True)
class ShardInfo:
    """One shard's identity: name, line count, size and payload digest."""

    name: str
    lines: int
    nbytes: int
    sha256: str

    def to_doc(self) -> dict[str, object]:
        return {
            "name": self.name,
            "lines": self.lines,
            "nbytes": self.nbytes,
            "sha256": self.sha256,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardInfo":
        return cls(
            name=str(doc["name"]),
            lines=int(doc["lines"]),
            nbytes=int(doc["nbytes"]),
            sha256=str(doc["sha256"]),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The ordered shard list of one sharded text stream."""

    total_lines: int
    total_bytes: int
    shards: tuple[ShardInfo, ...]
    version: int = MANIFEST_VERSION

    def to_doc(self) -> dict[str, object]:
        return {
            "version": self.version,
            "total_lines": self.total_lines,
            "total_bytes": self.total_bytes,
            "shards": [s.to_doc() for s in self.shards],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardManifest":
        version = int(doc.get("version", -1))
        if version != MANIFEST_VERSION:
            raise ShardCorruption(f"unsupported manifest version {version}")
        return cls(
            total_lines=int(doc["total_lines"]),
            total_bytes=int(doc["total_bytes"]),
            shards=tuple(ShardInfo.from_doc(s) for s in doc["shards"]),
            version=version,
        )


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Same-directory staged write: readers never see a torn file."""
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{next(_tmp_counter)}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed; don't leak staging files
            tmp.unlink(missing_ok=True)


def _sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def shard_name(index: int) -> str:
    """Canonical shard file name for shard ``index``."""
    return f"shard-{index:06d}.log"


def iter_shard_payloads(
    lines: Iterable[str],
    *,
    max_lines_per_shard: int = DEFAULT_SHARD_LINES,
) -> Iterator[tuple[int, str]]:
    """Group ``lines`` into ``(line_count, text)`` shard payloads.

    Each payload is the newline-terminated join of up to
    ``max_lines_per_shard`` whole lines (lines must not already contain
    ``\\n``), so concatenating the payloads in order reproduces the
    monolithic rendering with its trailing newline.  At most one
    shard's lines are buffered at a time.  This is the chunking shared
    by every sharded sink — files (:func:`write_shards`) and the
    artifact store's sharded console layer.
    """
    if max_lines_per_shard < 1:
        raise ValueError("max_lines_per_shard must be >= 1")
    buffer: list[str] = []
    for line in lines:
        buffer.append(line)
        if len(buffer) >= max_lines_per_shard:
            yield len(buffer), "\n".join(buffer) + "\n"
            buffer.clear()
    if buffer:
        yield len(buffer), "\n".join(buffer) + "\n"


def write_shards(
    lines: Iterable[str],
    directory: str | Path,
    *,
    max_lines_per_shard: int = DEFAULT_SHARD_LINES,
) -> ShardManifest:
    """Stream ``lines`` into whole-line-aligned shard files.

    Every line is newline-terminated on disk (lines must not already
    contain ``\\n``), so ``b"".join(shard payloads)`` equals the
    monolithic rendering with its trailing newline.  At most one
    shard's lines are buffered in memory.  The manifest is written
    last, after every shard is durable — a crash mid-write leaves no
    manifest and therefore no partially-valid shard set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards: list[ShardInfo] = []
    total_lines = 0
    total_bytes = 0
    for n_lines, text in iter_shard_payloads(
        lines, max_lines_per_shard=max_lines_per_shard
    ):
        payload = text.encode("utf-8")
        name = shard_name(len(shards))
        _atomic_write_bytes(directory / name, payload)
        shards.append(
            ShardInfo(
                name=name,
                lines=n_lines,
                nbytes=len(payload),
                sha256=_sha256_hex(payload),
            )
        )
        total_lines += n_lines
        total_bytes += len(payload)

    manifest = ShardManifest(
        total_lines=total_lines,
        total_bytes=total_bytes,
        shards=tuple(shards),
    )
    _atomic_write_bytes(
        directory / MANIFEST_NAME,
        (
            json.dumps(manifest.to_doc(), sort_keys=True, indent=2) + "\n"
        ).encode("utf-8"),
    )
    return manifest


def read_manifest(directory: str | Path) -> ShardManifest:
    """Load and validate a shard directory's manifest.

    Raises :class:`FileNotFoundError` when no manifest exists and
    :class:`ShardCorruption` when it is unreadable or the wrong
    version.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise ShardCorruption(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShardCorruption(f"manifest {path} is not an object")
    return ShardManifest.from_doc(doc)


def _read_shard_bytes(
    directory: Path, shard: ShardInfo, *, verify: bool
) -> bytes:
    try:
        payload = (directory / shard.name).read_bytes()
    except OSError as exc:
        raise ShardCorruption(
            f"shard {shard.name} unreadable: {exc}"
        ) from exc
    if verify:
        if len(payload) != shard.nbytes:
            raise ShardCorruption(
                f"shard {shard.name} is {len(payload)} bytes, "
                f"manifest claims {shard.nbytes}"
            )
        if _sha256_hex(payload) != shard.sha256:
            raise ShardCorruption(f"shard {shard.name} checksum mismatch")
    return payload


def iter_shard_texts(
    directory: str | Path,
    manifest: ShardManifest | None = None,
    *,
    verify: bool = True,
) -> Iterator[str]:
    """Yield each shard's decoded text, in manifest order.

    One shard is resident at a time; ``verify`` checks every payload
    against its manifest digest (default on — a shard that drifted
    from its manifest raises :class:`ShardCorruption`).
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_manifest(directory)
    for shard in manifest.shards:
        yield _read_shard_bytes(directory, shard, verify=verify).decode(
            "utf-8"
        )


def iter_shard_lines(
    directory: str | Path,
    manifest: ShardManifest | None = None,
    *,
    verify: bool = True,
) -> Iterator[str]:
    """Yield every line of a sharded stream, shard by shard.

    Because shards are whole-line aligned, this is exactly the line
    sequence of the monolithic rendering.
    """
    for text in iter_shard_texts(directory, manifest, verify=verify):
        yield from text.splitlines()


def reassemble_text(
    directory: str | Path,
    manifest: ShardManifest | None = None,
    *,
    verify: bool = True,
) -> str:
    """The monolithic text, byte-identical to the unsharded rendering.

    Materializes the full stream — use only where the monolithic form
    is genuinely needed (equivalence checks, the chaos corruption
    hook); streaming consumers should iterate shards instead.
    """
    return "".join(iter_shard_texts(directory, manifest, verify=verify))


def verify_shards(
    directory: str | Path, manifest: ShardManifest | None = None
) -> list[str]:
    """Names of shards that fail their manifest digest (empty = clean)."""
    directory = Path(directory)
    if manifest is None:
        manifest = read_manifest(directory)
    bad: list[str] = []
    for shard in manifest.shards:
        try:
            _read_shard_bytes(directory, shard, verify=True)
        except ShardCorruption:
            bad.append(shard.name)
    return bad
