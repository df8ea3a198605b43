"""Tests for the determinism & invariant linter (:mod:`repro.lint`).

Each rule gets positive (violating) and negative (clean) inline
fixtures linted through :func:`repro.lint.lint_source`; the CLI and
reporters are tested end-to-end against a temporary fixture tree; and
a self-check asserts the repo's own source lints clean — the invariant
CI enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.lint import (
    Severity,
    all_rules,
    build_project,
    get_rule,
    lint_paths,
    lint_source,
    render_json,
    render_rule_list,
    resolve_selection,
)
from repro.lint.engine import PARSE_ERROR_CODE, iter_python_files
from repro.lint.rules import _DETERMINISTIC_DIRS


def codes(findings):
    return [f.code for f in findings]


# ---------------------------------------------------------------------------
# RL001 — ambient RNG
# ---------------------------------------------------------------------------


class TestRL001:
    def test_flags_stdlib_random_import(self):
        out = lint_source("import random\n", select="RL001")
        assert codes(out) == ["RL001"]

    def test_flags_from_random_import(self):
        out = lint_source("from random import shuffle\n", select="RL001")
        assert codes(out) == ["RL001"]

    def test_flags_default_rng_under_alias(self):
        src = "import numpy as np\ng = np.random.default_rng(0)\n"
        out = lint_source(src, select="RL001")
        assert codes(out) == ["RL001"]
        assert "default_rng" in out[0].message

    def test_flags_module_level_distribution_call(self):
        src = "import numpy\nx = numpy.random.normal(0, 1)\n"
        assert codes(lint_source(src, select="RL001")) == ["RL001"]

    def test_flags_from_numpy_import_random(self):
        src = "from numpy import random as npr\nx = npr.rand(3)\n"
        assert codes(lint_source(src, select="RL001")) == ["RL001"]

    def test_allows_seed_sequence_and_generator_types(self):
        src = (
            "import numpy as np\n"
            "seq = np.random.SeedSequence(1)\n"
            "def f(g: np.random.Generator) -> float:\n"
            "    return g.random()\n"
        )
        assert lint_source(src, select="RL001") == []

    def test_rng_module_exempt(self):
        src = "import numpy as np\ng = np.random.default_rng(7)\n"
        assert lint_source(src, filename="src/repro/rng.py", select="RL001") == []
        # ...but only rng.py itself, not other modules.
        assert lint_source(src, filename="src/repro/sbe.py", select="RL001")


# ---------------------------------------------------------------------------
# RL002 — wall-clock reads, scoped to deterministic directories
# ---------------------------------------------------------------------------


class TestRL002:
    SIM = "pkg/sim/engine.py"

    def test_flags_time_time_in_sim(self):
        src = "import time\nt = time.time()\n"
        out = lint_source(src, filename=self.SIM, select="RL002")
        assert codes(out) == ["RL002"]

    def test_flags_datetime_now_with_alias(self):
        src = "import datetime as _dt\nnow = _dt.datetime.now()\n"
        out = lint_source(src, filename="x/telemetry/log.py", select="RL002")
        assert codes(out) == ["RL002"]

    def test_flags_from_import_datetime(self):
        src = "from datetime import datetime\nnow = datetime.utcnow()\n"
        out = lint_source(src, filename="a/faults/inj.py", select="RL002")
        assert codes(out) == ["RL002"]

    def test_unscoped_paths_are_allowed(self):
        src = "import time\nt = time.time()\n"
        assert lint_source(src, filename="pkg/viz/render.py", select="RL002") == []

    def test_constructing_datetimes_is_fine(self):
        src = "import datetime as _dt\nepoch = _dt.datetime(2013, 6, 1)\n"
        assert lint_source(src, filename=self.SIM, select="RL002") == []


# ---------------------------------------------------------------------------
# RL003 — unordered iteration
# ---------------------------------------------------------------------------


class TestRL003:
    def test_flags_set_literal_for_loop(self):
        src = "for x in {1, 2}:\n    pass\n"
        assert codes(lint_source(src, select="RL003")) == ["RL003"]

    def test_flags_set_call_comprehension(self):
        src = "ys = [x for x in set([3, 1])]\n"
        assert codes(lint_source(src, select="RL003")) == ["RL003"]

    def test_flags_keys_iteration(self):
        src = "d = {}\nfor k in d.keys():\n    pass\n"
        assert codes(lint_source(src, select="RL003")) == ["RL003"]

    def test_flags_list_wrapped_set(self):
        src = "for x in list(set([1, 2])):\n    pass\n"
        assert codes(lint_source(src, select="RL003")) == ["RL003"]

    def test_sorted_wrap_is_clean(self):
        src = (
            "d = {}\n"
            "for x in sorted({1, 2}):\n    pass\n"
            "for k in sorted(d.keys()):\n    pass\n"
        )
        assert lint_source(src, select="RL003") == []

    def test_dict_iteration_is_clean(self):
        src = "d = {}\nfor k in d:\n    pass\nxs = list(d.keys())\n"
        assert lint_source(src, select="RL003") == []


# ---------------------------------------------------------------------------
# RL004 — builtin hash()
# ---------------------------------------------------------------------------


class TestRL004:
    def test_flags_builtin_hash(self):
        out = lint_source("key = hash('faults.dbe')\n", select="RL004")
        assert codes(out) == ["RL004"]
        assert "crc32" in out[0].message

    def test_crc32_is_clean(self):
        src = "import zlib\nkey = zlib.crc32(b'faults.dbe')\n"
        assert lint_source(src, select="RL004") == []

    def test_method_hash_is_clean(self):
        src = "class A:\n    def hash(self):\n        return 1\nA().hash()\n"
        # obj.hash() is an attribute call, not the builtin.
        assert lint_source(src, select="RL004") == []


# ---------------------------------------------------------------------------
# RL005 — XID literals must exist in the taxonomy
# ---------------------------------------------------------------------------


class TestRL005:
    def test_known_xid_is_clean(self):
        src = "from repro.errors import by_xid\nts = by_xid(48)\n"
        assert lint_source(src, select="RL005") == []

    def test_unknown_xid_in_by_xid_call(self):
        src = "from repro.errors import by_xid\nts = by_xid(99)\n"
        out = lint_source(src, select="RL005")
        assert codes(out) == ["RL005"]
        assert "99" in out[0].message

    def test_unknown_xid_keyword(self):
        src = "def emit(xid=None):\n    pass\nemit(xid=1234)\n"
        assert codes(lint_source(src, select="RL005")) == ["RL005"]

    def test_unknown_xid_comparison(self):
        src = "def f(event):\n    return event.xid == 999\n"
        assert codes(lint_source(src, select="RL005")) == ["RL005"]

    def test_known_xid_comparison_clean(self):
        src = "def f(event):\n    return event.xid == 63\n"
        assert lint_source(src, select="RL005") == []

    def test_unrelated_integers_ignored(self):
        src = "n = 999\nif n == 999:\n    pass\n"
        assert lint_source(src, select="RL005") == []


# ---------------------------------------------------------------------------
# RL006 — magic duration literals
# ---------------------------------------------------------------------------


class TestRL006:
    @pytest.mark.parametrize(
        "literal,helper",
        [("3600", "HOUR"), ("86400.0", "DAY"), ("86_400.0", "DAY"),
         ("604800", "WEEK")],
    )
    def test_flags_duration_literals(self, literal, helper):
        out = lint_source(f"window = {literal}\n", select="RL006")
        assert codes(out) == ["RL006"]
        assert helper in out[0].message
        assert out[0].severity is Severity.WARNING

    def test_units_module_exempt(self):
        src = "HOUR = 3600.0\n"
        assert lint_source(src, filename="src/repro/units.py", select="RL006") == []

    def test_benign_numbers_clean(self):
        assert lint_source("n = 3601\nm = 60\n", select="RL006") == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestNoqa:
    def test_blanket_noqa(self):
        src = "key = hash('x')  # repro: noqa\n"
        assert lint_source(src, select="RL004") == []

    def test_coded_noqa_suppresses_matching_rule(self):
        src = "key = hash('x')  # repro: noqa[RL004]\n"
        assert lint_source(src, select="RL004") == []

    def test_coded_noqa_keeps_other_rules(self):
        src = "import random  # repro: noqa[RL006]\n"
        assert codes(lint_source(src, select="RL001")) == ["RL001"]

    def test_noqa_is_line_scoped(self):
        src = "# repro: noqa[RL004]\nkey = hash('x')\n"
        assert codes(lint_source(src, select="RL004")) == ["RL004"]

    def test_multiple_codes(self):
        src = "t = 3600.0; k = hash('x')  # repro: noqa[RL004, RL006]\n"
        assert lint_source(src, select="RL004,RL006") == []


# ---------------------------------------------------------------------------
# Engine, registry, reporters
# ---------------------------------------------------------------------------


class TestEngine:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files(["/no/such/dir/anywhere"])

    def test_syntax_error_becomes_rl000(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = lint_paths([tmp_path])
        assert codes(result.findings) == [PARSE_ERROR_CODE]
        assert result.exit_code == 1

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("k = hash('x')\n")
        (tmp_path / "a.py").write_text("t = 3600\nimport random\n")
        r1 = lint_paths([tmp_path])
        r2 = lint_paths([tmp_path])
        assert r1.findings == r2.findings
        assert [f.path for f in r1.findings] == sorted(
            f.path for f in r1.findings
        )

    def test_unknown_rule_selection(self):
        with pytest.raises(KeyError):
            resolve_selection("RL999")

    def test_registry_has_all_rules(self):
        assert [cls.code for cls in all_rules()] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
            "RL007", "RL100", "RL101", "RL102", "RL103",
        ]
        assert get_rule("RL001").name == "no-ambient-rng"
        assert get_rule("RL007").name == "unused-suppression"
        assert get_rule("RL100").name == "seed-flow"

    def test_rule_list_renders_every_rationale(self):
        text = render_rule_list()
        for cls in all_rules():
            assert cls.code in text
            assert cls.rationale.split()[0] in text


class TestJsonReport:
    def test_schema_round_trips(self, tmp_path):
        (tmp_path / "bad.py").write_text("key = hash('x')\n")
        result = lint_paths([tmp_path])
        payload = json.loads(render_json(result))
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["ok"] is False
        assert payload["counts"] == {"RL004": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL004"
        assert finding["line"] == 1
        assert finding["severity"] == "error"
        assert finding["path"].endswith("bad.py")
        assert finding["fixable"] is False
        assert set(payload["rules"]) >= {"RL001", "RL006", "RL100"}


# ---------------------------------------------------------------------------
# CLI end-to-end + self-check
# ---------------------------------------------------------------------------


def _package_root() -> Path:
    return Path(repro.__file__).resolve().parent


class TestCli:
    def _fixture_tree(self, tmp_path: Path) -> Path:
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text(
            "import random\n"
            "import time\n"
            "import numpy as np\n"
            "from repro.errors import by_xid\n"
            "g = np.random.default_rng(0)\n"
            "t = time.time()\n"
            "for x in {1, 2}:\n"
            "    pass\n"
            "k = hash('stream')\n"
            "e = by_xid(99)\n"
            "w = 86400.0\n"
        )
        return tmp_path

    def test_fixture_tree_trips_every_rule(self, tmp_path, capsys):
        rc = cli_main(["lint", str(self._fixture_tree(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 1
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out
        # precise file:line rule message format
        assert "sim/bad.py:1:0: RL001" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        rc = cli_main(
            ["lint", "--format", "json", str(self._fixture_tree(tmp_path))]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["ok"] is False
        assert set(payload["counts"]) == {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
        }

    def test_select_narrows_rules(self, tmp_path, capsys):
        rc = cli_main(
            ["lint", "--select", "RL004", str(self._fixture_tree(tmp_path))]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RL004" in out and "RL001" not in out

    def test_bad_path_exits_2(self, capsys):
        assert cli_main(["lint", "/no/such/path"]) == 2

    def test_bad_selection_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert cli_main(["lint", "--select", "RL999", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "RL005" in capsys.readouterr().out

    def test_self_check_repo_is_clean(self, capsys):
        """The repo's own source must lint clean — the CI invariant."""
        rc = cli_main(["lint", str(_package_root())])
        assert rc == 0, capsys.readouterr().out

    def test_default_target_is_package(self, capsys):
        rc = cli_main(["lint"])
        assert rc == 0


# ---------------------------------------------------------------------------
# RL007 — unused / unknown-code suppressions
# ---------------------------------------------------------------------------


class TestRL007:
    def test_flags_unused_blanket_marker(self):
        out = lint_source("x = 1  # repro: noqa\n")
        assert codes(out) == ["RL007"]
        assert "suppresses nothing" in out[0].message
        assert out[0].fix is not None

    def test_flags_unused_coded_marker(self):
        out = lint_source("x = 1  # repro: noqa[RL004]\n")
        assert codes(out) == ["RL007"]

    def test_used_marker_is_clean(self):
        assert lint_source("k = hash('x')  # repro: noqa[RL004]\n") == []

    def test_flags_unknown_codes(self):
        out = lint_source("k = hash('x')  # repro: noqa[RL004, RL999]\n")
        assert codes(out) == ["RL007"]
        assert "RL999" in out[0].message

    def test_docstring_example_is_not_a_marker(self):
        src = '"""Docs: suppress with ``# repro: noqa[RL001]``."""\nx = 1\n'
        assert lint_source(src) == []

    def test_select_run_skips_unused_check(self):
        # Under --select a marker for an unselected rule would look
        # spuriously dead, so only the unknown-code check runs.
        src = "x = 1  # repro: noqa[RL004]\n"
        assert lint_source(src, select="RL004,RL007") == []
        bad = "k = hash('x')  # repro: noqa[RL004,RL999]\n"
        assert codes(lint_source(bad, select="RL004,RL007")) == ["RL007"]

    def test_rl007_is_not_itself_suppressible(self):
        # The stale marker cannot mute the finding about itself.
        out = lint_source("x = 1  # repro: noqa\n")
        assert codes(out) == ["RL007"]


# ---------------------------------------------------------------------------
# RL100 — seed-flow taint
# ---------------------------------------------------------------------------


class TestRL100:
    def test_draw_from_rng_param_is_clean(self):
        src = "def f(rng):\n    return rng.normal(0, 1)\n"
        assert lint_source(src, select="RL100") == []

    def test_draw_from_derived_local_is_clean(self):
        src = (
            "def f(rng_tree):\n"
            "    g = rng_tree.fresh_generator('faults')\n"
            "    return g.normal()\n"
        )
        assert lint_source(src, select="RL100") == []

    def test_draw_from_opaque_local_is_flagged(self):
        src = (
            "def f(state):\n"
            "    g = state.thing()\n"
            "    return g.normal()\n"
        )
        out = lint_source(src, select="RL100")
        assert codes(out) == ["RL100"]
        assert "rng parameter" in out[0].message

    def test_helper_returning_derivation_is_clean(self):
        # Seed flow follows the call graph through project helpers.
        src = (
            "from repro.rng import RngTree\n"
            "def make_rng():\n"
            "    return RngTree(2).fresh_generator('stats')\n"
            "def f():\n"
            "    g = make_rng()\n"
            "    return g.normal()\n"
        )
        assert lint_source(src, select="RL100") == []

    def test_draw_from_module_global_is_flagged(self):
        src = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)\n"
            "def f():\n"
            "    return g.normal()\n"
        )
        out = lint_source(src, select="RL100")
        assert codes(out) == ["RL100"]
        assert "module-level generator" in out[0].message

    def test_import_time_draw_is_flagged(self):
        src = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)\n"
            "x = g.normal()\n"
        )
        out = lint_source(src, select="RL100")
        assert codes(out) == ["RL100"]
        assert "import time" in out[0].message

    def test_stdlib_module_attribute_not_flagged(self):
        # math.gamma is the function, not a Generator draw.
        src = "import math\nx = math.gamma(0.5)\n"
        assert lint_source(src, select="RL100") == []

    def test_call_dropping_required_rng_param_is_flagged(self):
        src = (
            "def noisy(n, rng):\n"
            "    return rng.normal(size=n)\n"
            "def caller():\n"
            "    return noisy(3)\n"
        )
        out = lint_source(src, select="RL100")
        assert codes(out) == ["RL100"]
        assert "`rng`" in out[0].message

    def test_call_threading_rng_is_clean(self):
        src = (
            "def noisy(n, rng):\n"
            "    return rng.normal(size=n)\n"
            "def caller(rng):\n"
            "    return noisy(3, rng)\n"
        )
        assert lint_source(src, select="RL100") == []

    def test_rng_with_default_is_optional(self):
        src = (
            "def noisy(n, rng=None):\n"
            "    pass\n"
            "def caller():\n"
            "    return noisy(3)\n"
        )
        assert lint_source(src, select="RL100") == []

    def test_nested_def_inherits_rng_param(self):
        src = (
            "def outer(rng):\n"
            "    def inner():\n"
            "        return rng.normal()\n"
            "    return inner()\n"
        )
        assert lint_source(src, select="RL100") == []


# ---------------------------------------------------------------------------
# RL101 — spawn safety
# ---------------------------------------------------------------------------


class TestRL101:
    IMP = "from repro.parallel.pool import parallel_map\n"

    def test_lambda_is_flagged(self):
        src = self.IMP + "def f(xs):\n    return parallel_map(lambda x: x, xs)\n"
        out = lint_source(src, select="RL101")
        assert codes(out) == ["RL101"]
        assert "lambda" in out[0].message

    def test_nested_def_is_flagged(self):
        src = self.IMP + (
            "def f(xs):\n"
            "    def work(x):\n"
            "        return x\n"
            "    return parallel_map(work, xs)\n"
        )
        out = lint_source(src, select="RL101")
        assert codes(out) == ["RL101"]
        assert "closure-local" in out[0].message

    def test_module_level_function_is_clean(self):
        src = self.IMP + (
            "def work(x):\n"
            "    return x\n"
            "def f(xs):\n"
            "    return parallel_map(work, xs)\n"
        )
        assert lint_source(src, select="RL101") == []

    def test_locally_bound_callable_is_flagged(self):
        src = self.IMP + (
            "def pick(name):\n"
            "    pass\n"
            "def f(xs, name):\n"
            "    work = pick(name)\n"
            "    return parallel_map(work, xs)\n"
        )
        out = lint_source(src, select="RL101")
        assert codes(out) == ["RL101"]
        assert "locally-bound" in out[0].message

    def test_bound_method_is_flagged(self):
        src = self.IMP + (
            "def f(runner, xs):\n"
            "    return parallel_map(runner.step, xs)\n"
        )
        out = lint_source(src, select="RL101")
        assert codes(out) == ["RL101"]
        assert "bound method" in out[0].message

    def test_fn_keyword_is_checked(self):
        src = self.IMP + (
            "def f(xs):\n"
            "    return parallel_map(fn=lambda x: x, items=xs)\n"
        )
        assert codes(lint_source(src, select="RL101")) == ["RL101"]

    def test_noqa_suppresses_project_finding(self):
        src = self.IMP + (
            "def f(xs):\n"
            "    return parallel_map(lambda x: x, xs)"
            "  # repro: noqa[RL101]\n"
        )
        assert lint_source(src, select="RL101") == []


# ---------------------------------------------------------------------------
# RL102 — cache-key purity
# ---------------------------------------------------------------------------


class TestRL102:
    KEYS = "pkg/cache/keys.py"

    def test_env_read_in_keys_module_is_flagged(self):
        src = (
            "import os\n"
            "def fingerprint(s):\n"
            "    return os.getenv('HOSTNAME')\n"
        )
        out = lint_source(src, filename=self.KEYS, select="RL102")
        assert codes(out) == ["RL102"]
        assert "ambient process state" in out[0].message

    def test_environ_subscript_is_flagged(self):
        src = (
            "import os\n"
            "def fingerprint(s):\n"
            "    return os.environ['HOME']\n"
        )
        out = lint_source(src, filename=self.KEYS, select="RL102")
        assert codes(out) == ["RL102"]

    def test_wall_clock_reachable_from_keys_is_flagged(self):
        src = (
            "import time\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "def fingerprint(s):\n"
            "    return _stamp()\n"
        )
        out = lint_source(src, filename=self.KEYS, select="RL102")
        assert codes(out) == ["RL102"]
        assert "wall clock" in out[0].message

    def test_pure_keys_module_is_clean(self):
        src = (
            "import hashlib\n"
            "import json\n"
            "def fingerprint(s):\n"
            "    blob = json.dumps(s, sort_keys=True)\n"
            "    return hashlib.sha256(blob.encode()).hexdigest()\n"
        )
        assert lint_source(src, filename=self.KEYS, select="RL102") == []

    def test_other_modules_unconstrained(self):
        src = "import os\ndef f():\n    return os.getenv('HOME')\n"
        assert lint_source(src, filename="pkg/viz/render.py", select="RL102") == []

    def test_repo_keys_module_is_pure(self):
        # The real fingerprinting closure must satisfy its own rule.
        result = lint_paths([_package_root()], select="RL102")
        assert result.findings == ()


# ---------------------------------------------------------------------------
# RL103 — epoch discipline
# ---------------------------------------------------------------------------


class TestRL103:
    DET_DIRS = tuple(sorted(_DETERMINISTIC_DIRS))

    def _tree(self, tmp_path: Path, surface_line: str | None) -> Path:
        for d in self.DET_DIRS:
            (tmp_path / d).mkdir(exist_ok=True)
            (tmp_path / d / "mod.py").write_text(
                f"def {d}_entry(x):\n    return x\n"
            )
        keys_lines = ["PIPELINE_EPOCH = 1"]
        if surface_line is not None:
            keys_lines.append(surface_line)
        (tmp_path / "cache" / "keys.py").write_text(
            "\n".join(keys_lines) + "\n"
        )
        return tmp_path

    def _digest(self, root: Path) -> str:
        from repro.lint.context import build_context
        from repro.lint.flow import surface_digest

        contexts = [build_context(p) for p in iter_python_files([root])]
        return surface_digest(build_project(contexts))

    def test_missing_surface_constant_is_flagged(self, tmp_path):
        root = self._tree(tmp_path, None)
        result = lint_paths([root], select="RL103")
        assert codes(result.findings) == ["RL103"]
        assert "PIPELINE_SURFACE" in result.findings[0].message

    def test_recorded_digest_matches_is_clean(self, tmp_path):
        root = self._tree(tmp_path, None)
        digest = self._digest(root)
        root = self._tree(tmp_path, f"PIPELINE_SURFACE = '{digest}'")
        assert lint_paths([root], select="RL103").findings == ()

    def test_surface_drift_is_flagged(self, tmp_path):
        root = self._tree(tmp_path, "PIPELINE_SURFACE = 'deadbeefdeadbeef'")
        result = lint_paths([root], select="RL103")
        assert codes(result.findings) == ["RL103"]
        assert "drifted" in result.findings[0].message

    def test_new_public_function_moves_digest(self, tmp_path):
        root = self._tree(tmp_path, None)
        before = self._digest(root)
        (root / "sim" / "mod.py").write_text(
            "def sim_entry(x):\n    return x\n"
            "def sim_extra(y, rate=0.5):\n    return y\n"
        )
        assert self._digest(root) != before

    def test_private_helper_does_not_move_digest(self, tmp_path):
        root = self._tree(tmp_path, None)
        before = self._digest(root)
        (root / "sim" / "mod.py").write_text(
            "def sim_entry(x):\n    return x\n"
            "def _helper(y):\n    return y\n"
        )
        assert self._digest(root) == before

    def test_partial_lint_skips_the_rule(self, tmp_path):
        # Linting one subtree must not compare an incomplete surface.
        root = self._tree(tmp_path, "PIPELINE_SURFACE = 'deadbeefdeadbeef'")
        result = lint_paths([root / "cache"], select="RL103")
        assert result.findings == ()

    def test_repo_surface_digest_is_current(self):
        # The committed PIPELINE_SURFACE matches the live tree; when this
        # fails, decide on a PIPELINE_EPOCH bump and re-record the digest.
        # A missing deterministic directory would make the rule skip
        # itself as a partial lint, so every one must exist.
        root = _package_root()
        for d in self.DET_DIRS:
            assert (root / d).is_dir(), f"no deterministic dir {d}/"
        result = lint_paths([root], select="RL103")
        assert result.findings == ()


# ---------------------------------------------------------------------------
# File discovery exclusions (hidden / vendored directories)
# ---------------------------------------------------------------------------


class TestFileDiscovery:
    def test_hidden_and_vendored_dirs_are_skipped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        for vendored in (".venv", ".git", ".tox", "build", "node_modules"):
            (tmp_path / vendored / "sub").mkdir(parents=True)
            (tmp_path / vendored / "sub" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "c.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["ok.py"]

    def test_explicit_file_inside_excluded_dir_is_honoured(self, tmp_path):
        hidden = tmp_path / ".venv"
        hidden.mkdir()
        target = hidden / "probe.py"
        target.write_text("x = 1\n")
        assert iter_python_files([target]) == [target]

    def test_explicitly_passed_root_is_not_excluded(self, tmp_path):
        # Exclusion applies below the given root, not to the root itself.
        root = tmp_path / "build"
        root.mkdir()
        (root / "mod.py").write_text("x = 1\n")
        assert [p.name for p in iter_python_files([root])] == ["mod.py"]

    def test_excluded_findings_do_not_appear(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / ".venv").mkdir()
        (tmp_path / ".venv" / "bad.py").write_text("import random\n")
        result = lint_paths([tmp_path])
        assert result.findings == ()
        assert result.files_checked == 1


# ---------------------------------------------------------------------------
# --fix autofixer
# ---------------------------------------------------------------------------


class TestFix:
    def test_rl006_fix_rewrites_and_imports(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("window = 86400.0\nspan = 2 * 604800\n")
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        text = mod.read_text()
        assert rc == 0
        assert "from repro.units import DAY, WEEK" in text
        assert "window = DAY" in text
        assert "span = 2 * WEEK" in text

    def test_rl006_fix_extends_existing_import(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("from repro.units import HOUR\nwindow = 86400.0\n")
        cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert "from repro.units import DAY, HOUR" in mod.read_text()

    def test_stale_noqa_is_removed(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("x = 1  # repro: noqa\ny = 2\n")
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert mod.read_text() == "x = 1\ny = 2\n"

    def test_unknown_codes_are_rewritten(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("k = hash('x')  # repro: noqa[RL004,RL999]\n")
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert mod.read_text() == "k = hash('x')  # repro: noqa[RL004]\n"

    def test_fix_converges_in_one_pass(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("t = 3600\nx = 1  # repro: noqa\n")
        cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        first = mod.read_text()
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert mod.read_text() == first  # idempotent

    def test_fix_on_clean_tree_is_byte_identical(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        original = "from repro.units import HOUR\nwindow = HOUR\n"
        mod.write_text(original)
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert mod.read_bytes() == original.encode()

    def test_unfixable_findings_survive_fix(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("import random\nt = 3600\n")
        rc = cli_main(["lint", "--fix", str(tmp_path)])
        capsys.readouterr()
        assert rc == 1  # RL001 has no mechanical fix
        assert "import random" in mod.read_text()
        assert "HOUR" in mod.read_text()


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class TestBaseline:
    def _dirty(self, tmp_path: Path) -> Path:
        (tmp_path / "m.py").write_text("import random\nk = hash('x')\n")
        return tmp_path

    def test_write_then_apply_round_trips(self, tmp_path, capsys):
        root = self._dirty(tmp_path)
        bl = tmp_path / "bl.json"
        assert cli_main(
            ["lint", "--write-baseline", str(bl), str(root)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(bl.read_text())
        assert doc["version"] == 1
        assert {e["code"] for e in doc["entries"]} == {"RL001", "RL004"}
        rc = cli_main(["lint", "--baseline", str(bl), str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_new_finding_beyond_allowance_fails(self, tmp_path, capsys):
        root = self._dirty(tmp_path)
        bl = tmp_path / "bl.json"
        cli_main(["lint", "--write-baseline", str(bl), str(root)])
        capsys.readouterr()
        (root / "m.py").write_text(
            "import random\nk = hash('x')\nk2 = hash('y')\n"
        )
        rc = cli_main(["lint", "--baseline", str(bl), str(root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RL004" in out

    def test_stale_entry_fails_the_run(self, tmp_path, capsys):
        root = self._dirty(tmp_path)
        bl = tmp_path / "bl.json"
        cli_main(["lint", "--write-baseline", str(bl), str(root)])
        capsys.readouterr()
        (root / "m.py").write_text("import random\n")  # RL004 fixed
        rc = cli_main(["lint", "--baseline", str(bl), str(root)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "stale baseline entry" in captured.err
        assert "RL004" in captured.err

    def test_malformed_baseline_exits_2(self, tmp_path, capsys):
        root = self._dirty(tmp_path)
        bl = tmp_path / "bl.json"
        bl.write_text('{"version": 99}')
        assert cli_main(["lint", "--baseline", str(bl), str(root)]) == 2

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        root = self._dirty(tmp_path)
        rc = cli_main(
            ["lint", "--baseline", str(tmp_path / "nope.json"), str(root)]
        )
        assert rc == 2

    def test_repo_baseline_has_no_stale_entries(self, capsys, monkeypatch):
        """The committed baseline must track reality — the CI invariant."""
        repo_root = _package_root().parent.parent
        bl = repo_root / "lint-baseline.json"
        if not bl.is_file():  # pragma: no cover - layout drift guard
            pytest.skip("no committed baseline next to this checkout")
        monkeypatch.chdir(repo_root)
        rc = cli_main(
            ["lint", "--baseline", str(bl), "src", "tests", "benchmarks"]
        )
        out = capsys.readouterr()
        assert rc == 0, out.out + out.err


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------


class TestSarif:
    def _findings_doc(self, tmp_path, capsys) -> dict:
        (tmp_path / "m.py").write_text("k = hash('x')\n")
        rc = cli_main(["lint", "--format", "sarif", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        return doc

    def test_sarif_2_1_0_shape(self, tmp_path, capsys):
        doc = self._findings_doc(tmp_path, capsys)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert "RL004" in rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning",
            )

    def test_sarif_results_are_one_based(self, tmp_path, capsys):
        doc = self._findings_doc(tmp_path, capsys)
        (res,) = doc["runs"][0]["results"]
        assert res["ruleId"] == "RL004"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert loc["region"]["startLine"] == 1
        assert loc["region"]["startColumn"] >= 1

    def test_result_rule_ids_all_in_catalog(self, tmp_path, capsys):
        doc = self._findings_doc(tmp_path, capsys)
        (run,) = doc["runs"]
        catalog = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in run["results"]} <= catalog

    def test_clean_tree_sarif_exits_0(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        rc = cli_main(["lint", "--format", "sarif", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Exit-code contract across formats + console script
# ---------------------------------------------------------------------------


class TestExitCodes:
    @pytest.mark.parametrize("fmt", ["human", "json", "sarif"])
    def test_clean_is_0(self, fmt, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert cli_main(["lint", "--format", fmt, str(tmp_path)]) == 0

    @pytest.mark.parametrize("fmt", ["human", "json", "sarif"])
    def test_findings_are_1(self, fmt, tmp_path, capsys):
        (tmp_path / "m.py").write_text("k = hash('x')\n")
        assert cli_main(["lint", "--format", fmt, str(tmp_path)]) == 1

    @pytest.mark.parametrize("fmt", ["human", "json", "sarif"])
    def test_bad_invocation_is_2(self, fmt, capsys):
        assert cli_main(["lint", "--format", fmt, "/no/such/path"]) == 2


class TestConsoleScript:
    def test_main_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        assert "RL103" in capsys.readouterr().out

    def test_main_lints_paths(self, tmp_path, capsys):
        from repro.lint.cli import main

        (tmp_path / "m.py").write_text("k = hash('x')\n")
        assert main([str(tmp_path)]) == 1
        assert main(["--select", "RL001", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_entry_point_is_declared(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11

        root = _package_root().parent.parent
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():  # pragma: no cover - layout drift
            pytest.skip("no pyproject next to this checkout")
        meta = tomllib.loads(pyproject.read_text())
        assert (
            meta["project"]["scripts"]["repro-lint"]
            == "repro.lint.cli:main"
        )
