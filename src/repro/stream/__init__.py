"""repro.stream — out-of-core, sharded telemetry with a memory budget.

Telemetry is written as whole-line-aligned shards plus a checksummed
manifest (:func:`write_shards`) instead of one giant string, and read
back one shard at a time as a line stream that
:meth:`repro.telemetry.parser.ConsoleLogParser.parse_lines` consumes.
The artifact store persists the console layer the same way.  See
docs/PERFORMANCE.md ("Memory").
"""

from repro.stream.shards import (
    DEFAULT_SHARD_LINES,
    MANIFEST_NAME,
    ShardCorruption,
    ShardInfo,
    ShardManifest,
    iter_shard_lines,
    iter_shard_payloads,
    iter_shard_texts,
    read_manifest,
    reassemble_text,
    verify_shards,
    write_shards,
)

__all__ = [
    "DEFAULT_SHARD_LINES",
    "MANIFEST_NAME",
    "ShardCorruption",
    "ShardInfo",
    "ShardManifest",
    "iter_shard_lines",
    "iter_shard_payloads",
    "iter_shard_texts",
    "read_manifest",
    "reassemble_text",
    "verify_shards",
    "write_shards",
]
