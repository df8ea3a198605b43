"""Payload codecs for the artifact store.

Every artifact is a ``(kind, bytes)`` pair; the kind names the codec so
a store entry is self-describing and :meth:`ArtifactStore.get` can
decode without the caller restating the type.

===========  ============================================================
kind         payload
===========  ============================================================
``text``     UTF-8 text, zlib-compressed (console logs compress ~10×)
``json``     canonical JSON document (sorted keys)
``npz``      dict of numpy arrays via ``np.savez_compressed``
``pickle``   arbitrary analysis result objects (figure dataclasses)
``columns``  ``(dict of 1-D numpy arrays, JSON document)``, decoded as
             read-only views of the payload itself, or of one fill value
             for a constant column (see below)
===========  ============================================================

``pickle`` is acceptable here because the store is a *local, private*
cache whose entries are checksummed at the container layer — a garbled
payload fails the SHA-256 check before ``pickle.loads`` ever sees it —
and entries are only ever written by this package.

A ``columns`` payload is laid out for a decode that copies nothing::

    4-byte BE header length | header JSON | zero pad | column | zero pad | ...

The header is ``{"columns": [entry, ...], "meta": doc}``, one entry per
column in order:

===============================  ===========================================
entry                            column
===============================  ===========================================
``[name, dtype, length]``        stored: its bytes start at the next 64-byte
                                 boundary of the payload after the header or
                                 the stored column before it
``[name, dtype, length, fill]``  constant: every element has the bytes of
                                 ``fill`` (one element, hex), and the
                                 payload holds none of them
===============================  ===========================================

A column is constant when its elements are bit-identical, so ``0.0``
and ``-0.0`` differ and a NaN keeps its payload bits; an empty column
is stored.  :func:`decode` returns a stored column as an
``np.frombuffer`` view of the payload bytes: read-only, aligned for its
dtype when the payload buffer is, and valid for as long as any view
holds the payload.  A constant column decodes as a read-only
``np.broadcast_to`` view of its one fill element (stride 0).
"""

from __future__ import annotations

import io
import json
import pickle
import zlib
from typing import Any

import numpy as np

__all__ = ["KINDS", "encode", "decode", "SerdeError"]

#: Compression level for console text: the logs are line-repetitive, so
#: level 1 already compresses ~10× at a fraction of level 9's cost.
_TEXT_COMPRESSION_LEVEL = 1

KINDS: tuple[str, ...] = ("text", "json", "npz", "pickle", "columns")

#: Alignment of every column of a ``columns`` payload.
_COLUMN_ALIGN = 64
_COLUMN_HEADER_LEN_BYTES = 4


class SerdeError(ValueError):
    """Payload could not be encoded/decoded for its declared kind."""


def encode(obj: Any, kind: str) -> bytes:
    """Serialize ``obj`` under codec ``kind``."""
    if kind == "text":
        if not isinstance(obj, str):
            raise SerdeError(f"text artifact needs str, got {type(obj).__name__}")
        return zlib.compress(obj.encode("utf-8"), _TEXT_COMPRESSION_LEVEL)
    if kind == "json":
        try:
            return json.dumps(
                obj, sort_keys=True, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"not JSON-serializable: {exc}") from exc
    if kind == "npz":
        if not isinstance(obj, dict) or not all(
            isinstance(k, str) and isinstance(v, np.ndarray)
            for k, v in obj.items()
        ):
            raise SerdeError("npz artifact needs dict[str, np.ndarray]")
        buf = io.BytesIO()
        np.savez_compressed(buf, **obj)
        return buf.getvalue()
    if kind == "pickle":
        return pickle.dumps(obj, protocol=4)
    if kind == "columns":
        return _encode_columns(obj)
    raise SerdeError(f"unknown artifact kind {kind!r} (want one of {KINDS})")


def decode(payload: bytes, kind: str) -> Any:
    """Inverse of :func:`encode`; raises :class:`SerdeError` on damage."""
    try:
        if kind == "text":
            return zlib.decompress(payload).decode("utf-8")
        if kind == "json":
            return json.loads(payload.decode("utf-8"))
        if kind == "npz":
            with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
                return {name: archive[name].copy() for name in archive.files}
        if kind == "pickle":
            return pickle.loads(payload)
        if kind == "columns":
            return _decode_columns(payload)
    except SerdeError:
        raise
    except Exception as exc:
        raise SerdeError(f"cannot decode {kind} payload: {exc}") from exc
    raise SerdeError(f"unknown artifact kind {kind!r} (want one of {KINDS})")


def _aligned(offset: int) -> int:
    return -(-offset // _COLUMN_ALIGN) * _COLUMN_ALIGN


def _encode_columns(obj: Any) -> bytes:
    """``columns`` payload of ``(arrays, meta)``: see the module docstring."""
    if not (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], dict)
        and all(
            isinstance(name, str)
            and isinstance(col, np.ndarray)
            and col.ndim == 1
            and not col.dtype.hasobject
            for name, col in obj[0].items()
        )
    ):
        raise SerdeError("columns artifact needs (dict[str, 1-D array], meta)")
    arrays, meta = obj
    entries: list[list[Any]] = []
    stored: list[np.ndarray] = []
    for name, col in arrays.items():
        raw = np.ascontiguousarray(col).view(np.uint8)
        entry: list[Any] = [name, col.dtype.str, len(col)]
        step = col.dtype.itemsize
        if len(col) and np.array_equal(raw[step:], raw[:-step]):
            entry.append(raw[:step].tobytes().hex())
        else:
            stored.append(raw)
        entries.append(entry)
    header = encode({"columns": entries, "meta": meta}, "json")
    parts: list[Any] = [len(header).to_bytes(_COLUMN_HEADER_LEN_BYTES, "big"), header]
    end = _COLUMN_HEADER_LEN_BYTES + len(header)
    for raw in stored:
        start = _aligned(end)
        parts.append(bytes(start - end))
        parts.append(raw)
        end = start + raw.nbytes
    return b"".join(parts)


def _decode_columns(payload: bytes) -> tuple[dict[str, np.ndarray], Any]:
    """Inverse of :func:`_encode_columns`: views of ``payload``, or of a
    constant column's fill, with no copies."""
    end = _COLUMN_HEADER_LEN_BYTES + int.from_bytes(
        payload[:_COLUMN_HEADER_LEN_BYTES], "big"
    )
    header = json.loads(payload[_COLUMN_HEADER_LEN_BYTES:end].decode("utf-8"))
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, length, *fill in header["columns"]:
        if fill:
            value = np.frombuffer(bytes.fromhex(*fill), dtype=np.dtype(dtype))
            if value.size != 1:
                raise SerdeError(f"column {name} has a {value.size}-element fill")
            arrays[name] = np.broadcast_to(value, (length,))
            continue
        start = _aligned(end)
        arrays[name] = np.frombuffer(
            payload, dtype=np.dtype(dtype), count=length, offset=start
        )
        end = start + arrays[name].nbytes
    if end != len(payload):
        raise SerdeError(f"columns end at byte {end} of a {len(payload)}-byte payload")
    return arrays, header["meta"]
