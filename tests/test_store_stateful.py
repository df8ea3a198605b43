"""Stateful (rule-based) property test for the artifact store.

A hypothesis ``RuleBasedStateMachine`` drives one
:class:`~repro.cache.store.ArtifactStore` through random interleavings
of ``put_bytes``/``get_bytes``/``delete``/``evict``/``clear``,
deliberate on-disk corruption, torn staging files from "dead writers",
and store reopens — while a shadow model (a plain dict) predicts what
every operation must observe:

* round-trips — every key the model holds round-trips its exact
  payload bytes and kind;
* corruption safety — a truncated container degrades to a miss (the
  entry is dropped and ``corrupt_dropped`` counts it), never a wrong
  payload;
* counter invariants — ``hits``/``misses``/``writes``/
  ``corrupt_dropped``/``evicted`` match the model's ledger exactly
  after every step;
* staging hygiene — reopening the store reclaims temp files left by
  dead writers and leaves live writers' files alone, and no ``.tmp-``
  debris is ever visible through ``entries()``/``keys()``.
"""

import os
import shutil
import subprocess
import sys
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache.store import _SUFFIX, _TMP_MARKER, ArtifactStore

#: A pid guaranteed dead for the whole session: a child that already
#: exited (and was reaped, so the pid is free and not a zombie).
_proc = subprocess.Popen([sys.executable, "-c", ""])
_proc.wait()
DEAD_PID = _proc.pid

_KEYS = ("alpha", "beta", "deep/nested/key", "deep/nested/other", "z-9._x")
_KINDS = ("text", "json", "npz", "pickle")


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-store-sm-")
        self.store = ArtifactStore(self.root)
        #: Shadow model: key -> (payload, kind) for every *valid* artifact.
        self.model: dict[str, tuple[bytes, str]] = {}
        #: Expected session counters of the *current* store instance.
        self.expected = dict.fromkeys(
            ("hits", "misses", "writes", "corrupt_dropped", "evicted"), 0
        )
        #: Stale staging files injected with a dead writer pid.
        self.dead_tmp: list[str] = []

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key + _SUFFIX)

    # -- rules ---------------------------------------------------------------

    @rule(
        key=st.sampled_from(_KEYS),
        payload=st.binary(max_size=64),
        kind=st.sampled_from(_KINDS),
    )
    def put(self, key, payload, kind):
        self.store.put_bytes(key, payload, kind)
        self.model[key] = (payload, kind)
        self.expected["writes"] += 1

    @rule(key=st.sampled_from(_KEYS))
    def get(self, key):
        got = self.store.get_bytes(key)
        if key in self.model:
            assert got == self.model[key]
            self.expected["hits"] += 1
        else:
            assert got is None
            self.expected["misses"] += 1

    @rule(key=st.sampled_from(_KEYS))
    def delete(self, key):
        removed = self.store.delete(key)
        assert removed == (key in self.model)
        self.model.pop(key, None)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def corrupt_then_get(self, data):
        """Truncate one container on disk: the read must degrade to a
        miss, drop the entry, and count it — never return bytes."""
        key = data.draw(st.sampled_from(sorted(self.model)))
        path = self._object_path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert self.store.get_bytes(key) is None
        assert not self.store.has(key)
        self.model.pop(key)
        self.expected["corrupt_dropped"] += 1
        self.expected["misses"] += 1

    @rule(budget=st.sampled_from((0, 64, 4096)))
    def evict(self, budget):
        before = set(self.model)
        removed = self.store.evict(budget)
        # eviction only ever removes whole known artifacts...
        assert set(removed) <= before
        self.expected["evicted"] += len(removed)
        for key in removed:
            self.model.pop(key)
        # ...and afterwards the survivors fit the byte budget.
        assert self.store.total_bytes() <= budget or not self.model
        for key in self.model:
            assert self.store.has(key)

    @rule()
    def clear(self):
        removed = self.store.clear()
        assert removed == len(self.model)
        self.model.clear()
        self.dead_tmp = [p for p in self.dead_tmp if os.path.exists(p)]

    @rule(key=st.sampled_from(_KEYS), n=st.integers(0, 99))
    def drop_torn_tmp_from_dead_writer(self, key, n):
        """Simulate a writer SIGKILLed between staging and rename."""
        path = self._object_path(key) + f"{_TMP_MARKER}{DEAD_PID}-{n}"
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"torn half-written garbage")
        self.dead_tmp.append(path)

    @rule()
    def reopen(self):
        """A new process opens the same root: fresh counters, stale
        staging files from dead writers reclaimed, live ones kept."""
        live = self._object_path("alpha") + f"{_TMP_MARKER}{os.getpid()}-0"
        os.makedirs(os.path.dirname(live), exist_ok=True)
        with open(live, "wb") as fh:
            fh.write(b"still being written")
        self.store = ArtifactStore(self.root)
        self.expected = dict.fromkeys(self.expected, 0)
        for path in self.dead_tmp:
            assert not os.path.exists(path), "stale staging file survived"
        self.dead_tmp = []
        assert os.path.exists(live), "live writer's staging file removed"
        os.unlink(live)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def counters_match_the_ledger(self):
        assert self.store.stats.as_dict() == self.expected

    @invariant()
    def inventory_matches_the_model(self):
        entries = self.store.entries()
        assert sorted(e.key for e in entries) == sorted(self.model)
        for entry in entries:
            payload, kind = self.model[entry.key]
            assert entry.kind == kind
            assert _TMP_MARKER not in entry.key


StoreMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestStoreStateful = StoreMachine.TestCase
