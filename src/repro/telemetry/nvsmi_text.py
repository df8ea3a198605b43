"""``nvidia-smi -q`` text rendering and parsing.

The operators' actual interface to the InfoROM is the text report of
``nvidia-smi -q`` (Section 2.2 collected exactly these from every
node).  This module renders a card snapshot in the K20X-era layout —
the *Ecc Errors* block with Volatile/Aggregate sections and per-
structure counters plus *Retired Pages* — and parses such reports back,
so collection pipelines built on the text format can be tested end to
end.

Only the fields the study uses are rendered; unknown lines are ignored
by the parser (real reports carry dozens of unrelated sections).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.telemetry.nvsmi import NvsmiRecord

__all__ = [
    "render_nvsmi_query",
    "parse_nvsmi_query",
    "parse_nvsmi_fleet",
    "ParsedNvsmiQuery",
    "NvsmiFleetStats",
]

#: nvidia-smi field labels per structure key used in our snapshots.
_STRUCTURE_LABELS: tuple[tuple[str, str], ...] = (
    ("device_memory", "Device Memory"),
    ("register_file", "Register File"),
    ("l1_cache", "L1 Cache"),
    ("l2_cache", "L2 Cache"),
    ("shared_memory", "Shared Memory"),  # folded into L1 on real K20X
    ("texture_memory", "Texture Memory"),
    ("readonly_cache", "Read Only Cache"),
)
_LABEL_TO_KEY = {label: key for key, label in _STRUCTURE_LABELS}


def render_nvsmi_query(record: NvsmiRecord, *, gpu_index: int = 0) -> str:
    """Render one card's snapshot as ``nvidia-smi -q`` style text."""
    lines = [
        f"GPU 0000:{gpu_index:02X}:00.0",
        f"    Serial Number                   : {record.serial:012d}",
        "    Product Name                    : Tesla K20X",
        f"    GPU Current Temp                : {record.temperature_c:.0f} C",
        "    Ecc Mode",
        "        Current                     : Enabled",
        "    Ecc Errors",
        "        Aggregate",
        "            Single Bit",
    ]
    for key, label in _STRUCTURE_LABELS:
        count = record.sbe_by_structure.get(key, 0)
        lines.append(f"                {label:<16}: {count}")
    lines.append(f"                {'Total':<16}: {record.sbe_total}")
    lines.append("            Double Bit")
    for key, label in _STRUCTURE_LABELS:
        count = record.dbe_by_structure.get(key, 0)
        lines.append(f"                {label:<16}: {count}")
    lines.append(f"                {'Total':<16}: {record.dbe_total}")
    lines.append("    Retired Pages")
    lines.append(
        f"        Pending Page Blacklist      : "
        f"{'Yes' if record.retired_pages else 'No'}"
    )
    lines.append(
        f"        Retired Page Count          : {record.retired_pages}"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedNvsmiQuery:
    """Fields recovered from an ``nvidia-smi -q`` report."""

    serial: int
    temperature_c: float
    sbe_by_structure: dict[str, int]
    dbe_by_structure: dict[str, int]
    sbe_total: int
    dbe_total: int
    retired_pages: int


_SERIAL_RE = re.compile(r"Serial Number\s*:\s*(\d+)")
_TEMP_RE = re.compile(r"GPU Current Temp\s*:\s*([\d.]+)\s*C")
_COUNTER_RE = re.compile(r"^\s+([A-Za-z][A-Za-z0-9 ]*?)\s*:\s*(\d+)\s*$")
_RETIRED_RE = re.compile(r"Retired Page Count\s*:\s*(\d+)")


#: Counter values past this are torn digits, not telemetry.
_MAX_COUNTER = 2**62


def parse_nvsmi_query(
    text: str, *, strict: bool = True
) -> ParsedNvsmiQuery | None:
    """Parse a report produced by :func:`render_nvsmi_query`.

    In strict mode (default) raises ``ValueError`` when mandatory
    fields are missing; with ``strict=False`` a damaged report returns
    ``None`` instead and garbled counter lines are skipped — collection
    pipelines count the loss rather than crash on it (see
    :func:`parse_nvsmi_fleet`).
    """
    serial_m = _SERIAL_RE.search(text)
    temp_m = _TEMP_RE.search(text)
    retired_m = _RETIRED_RE.search(text)
    if serial_m is None or temp_m is None or retired_m is None:
        if not strict:
            return None
        raise ValueError("not a recognizable nvidia-smi -q report")

    try:
        temperature = float(temp_m.group(1))
    except ValueError:
        # "[\d.]+" admits garbled digit runs like "7..5"; in lenient
        # mode that is damage, not a crash.
        if not strict:
            return None
        raise

    sbe: dict[str, int] = {}
    dbe: dict[str, int] = {}
    sbe_total = dbe_total = 0
    section: dict[str, int] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "Single Bit":
            section = sbe
            continue
        if stripped == "Double Bit":
            section = dbe
            continue
        if section is None:
            continue
        match = _COUNTER_RE.match(line)
        if match is None:
            section = None  # left the counter block
            continue
        label, value = match.group(1).strip(), int(match.group(2))
        if value >= _MAX_COUNTER:
            continue  # torn digits, not a counter
        if label == "Total":
            if section is sbe:
                sbe_total = value
            else:
                dbe_total = value
            section = None if section is dbe else section
            continue
        key = _LABEL_TO_KEY.get(label)
        if key is not None and value:
            section[key] = value
    return ParsedNvsmiQuery(
        serial=int(serial_m.group(1)),
        temperature_c=temperature,
        sbe_by_structure=sbe,
        dbe_by_structure=dbe,
        sbe_total=sbe_total,
        dbe_total=dbe_total,
        retired_pages=int(retired_m.group(1)),
    )


# --------------------------------------------------------------------------
# Fleet-stream parsing (many concatenated reports, damage counted)
# --------------------------------------------------------------------------

_REPORT_HEADER_RE = re.compile(r"^GPU [0-9A-Fa-f]{4}:")


@dataclass(frozen=True)
class NvsmiFleetStats:
    """Damage accounting for a concatenated fleet collection stream."""

    total_reports: int
    parsed_reports: int
    rejected_reports: int

    @property
    def corrupt_fraction(self) -> float:
        if self.total_reports == 0:
            return 0.0
        return self.rejected_reports / self.total_reports


def parse_nvsmi_fleet(
    text: str,
) -> tuple[list[ParsedNvsmiQuery], NvsmiFleetStats]:
    """Parse a concatenation of per-card reports, counting damage.

    The fleet collection pipeline (Section 2.2 ran one query per node)
    concatenates :func:`render_nvsmi_query` outputs; reports whose
    mandatory fields were destroyed are *counted* as rejected, never
    fatal.  Text before the first header (e.g. a torn leading report)
    is ignored.
    """
    reports: list[list[str]] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if _REPORT_HEADER_RE.match(line):
            current = [line]
            reports.append(current)
        elif current is not None:
            current.append(line)
    parsed: list[ParsedNvsmiQuery] = []
    rejected = 0
    for chunk in reports:
        record = parse_nvsmi_query("\n".join(chunk), strict=False)
        if record is None:
            rejected += 1
        else:
            parsed.append(record)
    return parsed, NvsmiFleetStats(
        total_reports=len(reports),
        parsed_reports=len(parsed),
        rejected_reports=rejected,
    )
