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

    def test_analyzer_imports_neither_numpy_nor_scipy(self):
        """``repro`` loads its public API lazily, so the AST linter runs
        without the numeric stack."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(real_src())
        code = ("import sys, repro.analysis.engine\n"
                "print(sorted(m for m in ('numpy', 'scipy') "
                "if m in sys.modules))\n"
                "from repro import Kondo\n"
                "print(Kondo.__name__)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "Kondo"]


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


class TestSerialPass:
    def test_check_leaves_cwd_untouched(self, tmp_path, tmp_path_factory,
                                        monkeypatch, capsys):
        # A check writes no file besides the report it was asked for.
        root = make_tree(tmp_path_factory.mktemp("tree"), DIRTY)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        rc = check_main([root, "--no-baseline"])
        capsys.readouterr()
        assert rc == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_per_file_rules_never_summarize(self, tmp_path, monkeypatch):
        from repro.analysis import callgraph, locks

        def explode(*args):
            raise AssertionError("summarized for a per-file rule")

        monkeypatch.setattr(locks, "collect_file", explode)
        monkeypatch.setattr(callgraph, "collect_file", explode)
        root = make_tree(tmp_path, DIRTY)
        result = run_check([root], select=["KND002"])
        assert [f.rule_id for f in result.new] == ["KND002"]


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

    def test_no_python_sources_is_usage_error(self, tmp_path, capsys):
        # A gate that checked nothing must not pass: a non-.py file and
        # an empty directory both exit 2 instead of "0 finding(s)".
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        for target in (readme, empty):
            rc = check_main([str(target), "--no-baseline"])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert (f"error: no Python sources under {target}"
                    in captured.err)

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "repro/core/broken.py": "def oops(:\n    pass\n",
        })
        rc = check_main([root, "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "KND000" in out and "could not parse" in out
