"""``kondo check`` / ``python -m repro.analysis`` end-to-end, plus the
self-clean acceptance check over the repo's real source tree."""

import json
import os
import subprocess
import sys

from repro import cli
from repro.analysis import Baseline, main as check_main, run_check
from tests.analysis.helpers import make_tree, real_src

DIRTY = {
    "repro/core/mod.py": (
        "def save(path):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
    ),
}


class TestCheckCli:
    def test_kondo_check_clean_tree_exits_zero(self, capsys):
        rc = cli.main(["check", real_src(), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out

    def test_engine_main_dirty_tree_exits_one(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        rc = check_main([root, "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "KND002" in out

    def test_json_format_parses(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        rc = check_main([root, "--no-baseline", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["findings"][0]["rule"] == "KND002"

    def test_output_file_is_written(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        report = tmp_path / "report.sarif"
        rc = check_main([root, "--no-baseline", "--format", "sarif",
                         "--output", str(report)])
        capsys.readouterr()
        assert rc == 1
        doc = json.loads(report.read_text())
        assert doc["version"] == "2.1.0"

    def test_list_rules_catalogs_every_rule(self, capsys):
        rc = cli.main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rid in ("KND001", "KND002", "KND003", "KND004",
                    "KND006", "KND007", "KND008", "KND009", "KND010",
                    "KND011", "KND012", "KND013", "KND014", "KND015"):
            assert rid in out
        # Retired with the campaign executor pool.
        assert "KND005" not in out

    def test_select_limits_rules(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/audit/mod.py": (
                "def slurp(path):\n"
                "    return open(path, 'w').write('x')\n"
            ),
        })
        rc = check_main([root, "--no-baseline", "--select", "KND006"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "KND006" in out and "KND002" not in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        bl = str(tmp_path / "bl.json")
        rc = check_main([root, "--baseline", bl, "--write-baseline"])
        assert rc == 0
        rc = check_main([root, "--baseline", bl])
        out = capsys.readouterr().out
        assert rc == 0
        assert "baselined finding(s) not shown" in out

    def test_missing_path_is_usage_error(self, capsys):
        rc = check_main(["definitely/not/a/path", "--no-baseline"])
        capsys.readouterr()
        assert rc == 2

    def test_module_entry_point(self):
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(real_src()))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "KND001" in proc.stdout


class TestSelfClean:
    """Acceptance: the repo's own tree passes its own linter."""

    def test_real_tree_has_no_findings(self):
        result = run_check([real_src()])
        assert result.new == [], "\n".join(f.format() for f in result.new)
        assert result.n_files > 100

    def test_committed_baseline_is_empty_for_knd001_knd002(self):
        repo_root = os.path.dirname(os.path.dirname(real_src()))
        path = os.path.join(repo_root, ".kondo-baseline.json")
        baseline = Baseline.load(path)
        present = baseline.rules_present()
        assert present.get("KND001", 0) == 0
        assert present.get("KND002", 0) == 0


class TestJobsAndCache:
    def test_jobs_output_byte_identical_to_sequential(self, capsys):
        # Acceptance: the parallel parse phase must not perturb a single
        # output byte, in either format, over the real tree.
        outs = {}
        for fmt in ("text", "json"):
            for jobs in ("1", "4"):
                rc = check_main([real_src(), "--no-baseline", "--no-cache",
                                 "--jobs", jobs, "--format", fmt])
                assert rc == 0
                outs[(fmt, jobs)] = capsys.readouterr().out
            assert outs[(fmt, "1")] == outs[(fmt, "4")]

    def test_cache_populates_and_second_run_matches(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        argv = [root, "--no-baseline", "--cache-dir", str(cache)]
        rc = check_main(argv)
        first = capsys.readouterr().out
        assert rc == 1
        assert list(cache.glob("*.pkl"))
        rc = check_main(argv)
        assert rc == 1
        assert capsys.readouterr().out == first

    def test_cache_invalidates_on_edit(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/core/mod.py": "def fine():\n    return 1\n",
        })
        cache = tmp_path / "cache"
        argv = [root, "--no-baseline", "--cache-dir", str(cache)]
        assert check_main(argv) == 0
        capsys.readouterr()
        # The edit changes the content hash, so the stale entry is
        # simply never consulted — no mtime games to get wrong.
        (tmp_path / "repro/core/mod.py").write_text(
            "def save(path):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write('x')\n")
        rc = check_main(argv)
        out = capsys.readouterr().out
        assert rc == 1
        assert "KND002" in out

    def test_no_cache_leaves_no_directory(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        rc = check_main([root, "--no-baseline", "--no-cache",
                         "--cache-dir", str(cache)])
        capsys.readouterr()
        assert rc == 1
        assert not cache.exists()

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        cache = tmp_path / "cache"
        argv = [root, "--no-baseline", "--cache-dir", str(cache)]
        assert check_main(argv) == 1
        first = capsys.readouterr().out
        for entry in cache.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        rc = check_main(argv)
        assert rc == 1
        assert capsys.readouterr().out == first


class TestExitCodeContract:
    """0 = clean, 1 = findings (rule crashes included), 2 = analyzer."""

    def test_crashing_rule_becomes_knd000_finding(self, tmp_path, capsys):
        from repro.analysis.model import Severity
        from repro.analysis.rulebase import _REGISTRY, Rule, register

        @register
        class ExplodingRule(Rule):
            rule_id = "KND900"
            name = "exploding"
            severity = Severity.ERROR
            summary = "always crashes (test only)"

            def check(self, pf, project):
                raise RuntimeError("boom")

        try:
            root = make_tree(tmp_path, {
                "repro/core/mod.py": "def fine():\n    return 1\n",
            })
            rc = check_main([root, "--no-baseline", "--select", "KND900"])
            out = capsys.readouterr().out
            assert rc == 1
            assert "KND000" in out
            assert "KND900" in out and "boom" in out
        finally:
            del _REGISTRY["KND900"]

    def test_crashing_project_rule_becomes_knd000_finding(
            self, tmp_path, capsys):
        from repro.analysis.model import Severity
        from repro.analysis.rulebase import _REGISTRY, Rule, register

        @register
        class ExplodingProjectRule(Rule):
            rule_id = "KND901"
            name = "exploding-project"
            severity = Severity.ERROR
            summary = "always crashes project-wide (test only)"

            def check(self, pf, project):
                return iter(())

            def check_project(self, project):
                raise RuntimeError("project boom")

        try:
            root = make_tree(tmp_path, {
                "repro/core/mod.py": "def fine():\n    return 1\n",
            })
            rc = check_main([root, "--no-baseline", "--select", "KND901"])
            out = capsys.readouterr().out
            assert rc == 1
            assert "KND000" in out and "project boom" in out
        finally:
            del _REGISTRY["KND901"]

    def test_internal_analyzer_crash_exits_two(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.analysis import engine

        def explode(*a, **kw):
            raise RuntimeError("loader wedged")

        monkeypatch.setattr(engine, "run_check", explode)
        root = make_tree(tmp_path, DIRTY)
        rc = check_main([root, "--no-baseline"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "internal analyzer failure" in err
        assert "loader wedged" in err

    def test_bad_jobs_value_is_usage_error(self, capsys):
        rc = check_main([real_src(), "--no-baseline", "--jobs", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--jobs" in err

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/core/broken.py": "def oops(:\n    pass\n",
        })
        rc = check_main([root, "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "KND000" in out and "could not parse" in out
