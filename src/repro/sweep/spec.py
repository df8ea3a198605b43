"""Declarative sweep specifications: the axes of a sensitivity study.

The paper reports every headline number for one machine at one scale;
its projections section asks how reliability moves with node count and
error rates.  A :class:`SweepSpec` is the declarative answer to "which
configurations": a small frozen dataclass naming the values of each
sensitivity axis, whose cartesian product
(:func:`repro.sweep.grid.expand`) is the deterministic grid of
scenario points the engine executes.

Axes
----
``scales``
    Machine-scale multipliers.  The physical
    :class:`~repro.topology.machine.TitanMachine` stays 18,688 nodes;
    a scale ``s`` models an ``s``-times-larger fleet by scaling the
    *fleet-level arrival rates* of crashing/driver error processes
    (DBE, Off-the-bus, XID streams), exactly the 1/N reasoning the
    paper's projections use.  Per-card SBE calibration is left alone —
    skew and correlation statistics describe cards, not fleets.
``rates``
    Per-category fault-rate multipliers (:class:`RateMultipliers`):
    independent knobs for the DBE, Off-the-bus, SBE and XID processes.
``windows``
    Study-window lengths in days (``None`` keeps the base window).
``bursts``
    Multipliers on the episodic SBE burst rate (Observations 11-13
    sensitivity to burstiness).
``corruptions``
    Observable-stream corruption levels: the rendered console log is
    deterministically damaged before analysis
    (:class:`~repro.chaos.injector.CorruptionInjector`, seeded from the
    point's scenario seed), probing how telemetry quality moves the
    sensitivity table.  Each point reports the parse damage it saw, so
    a sweep over this axis is the telemetry degradation curve (the
    ``degradation`` preset).
``replicas``
    Seeds per grid cell (an integer, not a value list).  Replica 0 is
    the cell itself; replica ``r`` re-seeds the cell's scenario and
    changes nothing else (see :mod:`repro.sweep.grid`).

The all-baseline point (scale 1, unit multipliers, base window, no
corruption, replica 0) is the **anchor**: its scenario is the
untouched base scenario object, so its figures reproduce the
single-scenario golden trace bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.rng import DEFAULT_SEED

__all__ = ["SPEC_VERSION", "RateMultipliers", "SweepSpec", "preset", "PRESETS"]

#: Schema version of the spec's JSON form (bump on layout changes).
SPEC_VERSION = 1

#: Scenario constructors a spec may build on.
_BASES = ("smoke", "paper")


def _check_positive_finite(name: str, value: Any) -> None:
    """Reject all but a finite number above zero (a bool is not one)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0.0 < value < math.inf  # also rejects NaN
    ):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RateMultipliers:
    """Per-category fault-rate multipliers (1.0 = paper calibration)."""

    dbe: float = 1.0
    otb: float = 1.0
    sbe: float = 1.0
    xid: float = 1.0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_positive_finite(
                f"rate multiplier {f.name}", getattr(self, f.name)
            )

    @property
    def is_baseline(self) -> bool:
        return all(
            getattr(self, f.name) == 1.0 for f in dataclasses.fields(self)
        )

    def label(self) -> str:
        """Compact human label, e.g. ``dbe*2`` — ``base`` if all unit."""
        parts = [
            f"{f.name}*{getattr(self, f.name):g}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != 1.0
        ]
        return "+".join(parts) if parts else "base"

    def to_doc(self) -> dict[str, float]:
        return {
            f.name: float(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "RateMultipliers":
        if not isinstance(doc, dict):
            raise ValueError(f"rate multipliers must be an object, got {doc!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown rate categories {sorted(unknown)}; "
                f"choose from {sorted(known)}"
            )
        return cls(**{name: float(value) for name, value in doc.items()})


@dataclass(frozen=True)
class SweepSpec:
    """One declarative multi-scenario sensitivity study."""

    name: str = "sweep"
    #: Base scenario constructor: ``smoke`` or ``paper``.
    base: str = "smoke"
    seed: int = DEFAULT_SEED
    #: Window of the ``smoke`` base (ignored for ``paper``).
    days: float = 45.0
    scales: tuple[float, ...] = (1.0,)
    rates: tuple[RateMultipliers, ...] = (RateMultipliers(),)
    #: Study-window lengths in days; ``None`` keeps the base window.
    windows: tuple[Optional[float], ...] = (None,)
    bursts: tuple[float, ...] = (1.0,)
    corruptions: tuple[float, ...] = (0.0,)
    #: Compute per-point availability (forces ground-truth simulation —
    #: the RAS node-state ledger is never cached).
    availability: bool = False
    #: Seeds per grid cell; replica 0 is the cell's own scenario.
    replicas: int = 1

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("sweep name must be a non-empty string")
        if self.base not in _BASES:
            raise ValueError(
                f"unknown base scenario {self.base!r}; "
                f"choose from {', '.join(_BASES)}"
            )
        for name, low in (("seed", 0), ("replicas", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # not a bool either
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        _check_positive_finite("days", self.days)
        for axis in ("scales", "rates", "windows", "bursts", "corruptions"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"axis {axis} must name at least one value")
            if len(set(values)) != len(values):
                raise ValueError(
                    f"axis {axis} has duplicate values: {values!r} "
                    "(duplicates would collide on one sweep-point key)"
                )
        for scale in self.scales:
            _check_positive_finite("scale", scale)
        for rm in self.rates:
            rm.validate()
        for window in self.windows:
            if window is not None:
                _check_positive_finite("window", window)
        for burst in self.bursts:
            _check_positive_finite("burst", burst)
        for level in self.corruptions:
            if not 0.0 <= level < 1.0:
                raise ValueError(
                    f"corruption level must be in [0, 1), got {level!r}"
                )

    @property
    def n_points(self) -> int:
        return (
            len(self.scales)
            * len(self.rates)
            * len(self.windows)
            * len(self.bursts)
            * len(self.corruptions)
            * self.replicas
        )

    def base_scenario(self) -> Any:
        """The untouched base scenario every grid point derives from."""
        from repro.sim import Scenario

        if self.base == "paper":
            return Scenario.paper(seed=self.seed)
        return Scenario.smoke(seed=self.seed, days=self.days)

    # -- identity ----------------------------------------------------------

    def key(self) -> str:
        """Content address of the spec's JSON form (``90`` == ``90.0``)."""
        from repro.cache.keys import canonical_json

        return hashlib.sha256(
            canonical_json(self.to_doc()).encode("ascii")
        ).hexdigest()[:32]

    # -- JSON form ---------------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "base": self.base,
            "seed": int(self.seed),
            "days": float(self.days),
            "scales": [float(s) for s in self.scales],
            "rates": [rm.to_doc() for rm in self.rates],
            "windows": [
                None if w is None else float(w) for w in self.windows
            ],
            "bursts": [float(b) for b in self.bursts],
            "corruptions": [float(c) for c in self.corruptions],
            "availability": bool(self.availability),
            "replicas": int(self.replicas),
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"sweep spec must be a JSON object, got {doc!r}")
        version = doc.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported sweep spec version {version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        known = {"version", *(f.name for f in dataclasses.fields(cls))}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown sweep spec fields {sorted(unknown)}")
        try:
            spec = cls(
                name=str(doc.get("name", "sweep")),
                base=str(doc.get("base", "smoke")),
                seed=doc.get("seed", DEFAULT_SEED),
                days=float(doc.get("days", 45.0)),
                scales=tuple(float(s) for s in doc.get("scales", [1.0])),
                rates=tuple(
                    RateMultipliers.from_doc(rm)
                    for rm in doc.get("rates", [{}])
                ),
                windows=tuple(
                    None if w is None else float(w)
                    for w in doc.get("windows", [None])
                ),
                bursts=tuple(float(b) for b in doc.get("bursts", [1.0])),
                corruptions=tuple(
                    float(c) for c in doc.get("corruptions", [0.0])
                ),
                availability=bool(doc.get("availability", False)),
                replicas=doc.get("replicas", 1),
            )
        except TypeError as exc:  # e.g. a number where a list belongs
            raise ValueError(f"malformed sweep spec: {exc}") from exc
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read sweep spec {path}: {exc}") from exc
        return cls.from_doc(doc)


#: Built-in sweep specs by name.
PRESETS: dict[str, SweepSpec] = {
    # 3x2 smoke grid: three machine scales, baseline vs doubled DBE.
    "smoke": SweepSpec(
        name="smoke",
        base="smoke",
        days=20.0,
        scales=(1.0, 2.0, 4.0),
        rates=(RateMultipliers(), RateMultipliers(dbe=2.0)),
    ),
    # 12-point sensitivity grid over scale x fault-rate multipliers.
    "sensitivity": SweepSpec(
        name="sensitivity",
        base="smoke",
        days=30.0,
        scales=(0.5, 1.0, 2.0, 4.0),
        rates=(
            RateMultipliers(),
            RateMultipliers(dbe=2.0),
            RateMultipliers(otb=0.1, xid=1.5),
        ),
    ),
    # MTBF-vs-node-count projection grid anchored at Titan scale.
    "scaling": SweepSpec(
        name="scaling",
        base="paper",
        scales=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    ),
    # Telemetry degradation curve: the paper scenario's console log
    # corrupted at 0-20 % of lines, each level scored against clean.
    "degradation": SweepSpec(
        name="degradation",
        base="paper",
        corruptions=(0.0, 0.001, 0.01, 0.05, 0.2),
    ),
}


def preset(name: str) -> SweepSpec:
    """A named built-in sweep spec (a key of :data:`PRESETS`)."""
    try:
        spec = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep preset {name!r}; "
            f"choose from {', '.join(sorted(PRESETS))}"
        ) from None
    spec.validate()
    return spec
