"""SARIF 2.1.0 schema-shape checks for the report writer."""

import json

from repro.analysis import run_check
from repro.analysis.report import render_json, render_sarif
from tests.analysis.helpers import make_tree

DIRTY = {
    "repro/core/mod.py": (
        "def save(path):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
    ),
}


class TestSarifShape:
    def _doc(self, tmp_path):
        root = make_tree(tmp_path, DIRTY)
        result = run_check([root])
        return result, json.loads(render_sarif(result.new, result.rules))

    def test_top_level_shape(self, tmp_path):
        _, doc = self._doc(tmp_path)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert len(doc["runs"]) == 1

    def test_driver_carries_full_rule_catalog(self, tmp_path):
        result, doc = self._doc(tmp_path)
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "kondo-check"
        ids = [r["id"] for r in driver["rules"]]
        assert ids == [r.rule_id for r in result.rules]
        assert len(ids) >= 6
        for meta in driver["rules"]:
            assert meta["shortDescription"]["text"]
            assert meta["defaultConfiguration"]["level"] in (
                "error", "warning", "note")

    def test_results_reference_rules_and_locations(self, tmp_path):
        result, doc = self._doc(tmp_path)
        results = doc["runs"][0]["results"]
        assert len(results) == len(result.new) >= 1
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        for res in results:
            assert res["ruleId"] in rule_ids
            assert res["message"]["text"]
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("mod.py")
            assert loc["region"]["startLine"] >= 1
            assert res["partialFingerprints"]["kondoFingerprint/v1"]

    def test_json_report_parses_and_mirrors_findings(self, tmp_path):
        result, _ = self._doc(tmp_path)
        doc = json.loads(render_json(result.new))
        assert list(doc) == ["findings"]
        assert len(doc["findings"]) == len(result.new)
        assert doc["findings"][0]["rule"] == "KND002"
        assert doc["findings"][0]["fingerprint"]

    def test_fingerprint_survives_line_shift(self, tmp_path):
        """A SARIF result keeps its fingerprint when unrelated edits move
        the offending line."""
        first, doc = self._doc(tmp_path)
        source = DIRTY["repro/core/mod.py"]
        shifted = {"repro/core/mod.py": "import os\n\n\n" + source}
        second = run_check([make_tree(tmp_path, shifted)])
        moved = json.loads(render_sarif(second.new, second.rules))
        assert [f.line for f in second.new] \
            == [f.line + 3 for f in first.new]

        def prints(d):
            return [r["partialFingerprints"]["kondoFingerprint/v1"]
                    for r in d["runs"][0]["results"]]

        assert prints(moved) == prints(doc)
