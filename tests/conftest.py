"""Shared fixtures and determinism guards.

Two datasets are exercised by the suite:

* ``smoke_dataset`` — a fast 45-day scenario for module-level tests;
* ``paper_dataset`` — the full 21-month paper scenario, simulated once
  per session, for the end-to-end observation suite.

Two autouse guards provide the *runtime* complement to the static
RL001/RL002 lint rules (see :mod:`repro.lint`): any test whose code
path reads the wall clock from inside ``repro.sim`` / ``repro.faults``
/ ``repro.workload`` / ``repro.telemetry`` / ``repro.chaos``, or that
causes one of those modules to import the stdlib ``random`` module,
fails.
"""

import sys
import time as _time_module

import pytest

from repro.lint.rules import _DETERMINISTIC_DIRS
from repro.sim import Scenario, default_dataset

#: Package prefixes that must stay a pure function of (scenario, seed).
_DETERMINISTIC_PREFIXES = tuple(
    f"repro.{d}" for d in sorted(_DETERMINISTIC_DIRS)
)

_DETERMINISTIC_PATH_PARTS = tuple(
    f"/repro/{d}/" for d in sorted(_DETERMINISTIC_DIRS)
)


@pytest.fixture(autouse=True, scope="session")
def _wall_clock_guard():
    """Fail any wall-clock ``time.*`` read made from simulator code.

    ``time.time`` (and friends) are wrapped for the whole session with
    a caller check: reads from files under ``repro/sim`` etc. raise.
    Everything else (pytest's own timing, benchmarks) passes through.
    """

    def _guard(name, real):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_filename.replace("\\", "/")
            if any(part in caller for part in _DETERMINISTIC_PATH_PARTS):
                raise AssertionError(
                    f"wall-clock read time.{name}() from deterministic "
                    f"simulator path {caller}; use simulator timestamps "
                    "(repro.units) — see RL002 in docs/LINT.md"
                )
            return real(*args, **kwargs)

        wrapper.__name__ = name
        return wrapper

    patched = {}
    for name in ("time", "time_ns", "monotonic", "perf_counter"):
        real = getattr(_time_module, name)
        patched[name] = real
        setattr(_time_module, name, _guard(name, real))
    try:
        yield
    finally:
        for name, real in patched.items():
            setattr(_time_module, name, real)


@pytest.fixture(autouse=True)
def _no_stdlib_random_in_sim():
    """Fail the test if a deterministic module imported stdlib random."""
    yield
    import random as _random

    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(_DETERMINISTIC_PREFIXES):
            continue
        for attr, value in list(vars(mod).items()):
            if value is _random:
                raise AssertionError(
                    f"{name} imports the stdlib `random` module (as "
                    f"{attr!r}); all randomness must flow through "
                    "RngTree-derived numpy Generators — see RL001 in "
                    "docs/LINT.md"
                )


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current pipeline "
             "instead of asserting against them (use after an "
             "intentional pipeline change, together with a "
             "PIPELINE_EPOCH bump; see tests/golden/README.md)",
    )


@pytest.fixture(scope="session")
def regen_golden(request):
    """True when the run should regenerate the golden trace files."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture(scope="session")
def smoke_dataset():
    return default_dataset(Scenario.smoke())


@pytest.fixture(scope="session")
def paper_dataset():
    return default_dataset(Scenario.paper())


@pytest.fixture(scope="session")
def bare_machine():
    from repro.topology.machine import TitanMachine

    return TitanMachine()
