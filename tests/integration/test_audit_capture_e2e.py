"""End-to-end: the block-capture audit session equals the per-event oracle.

Runs the full ``kondo analyze`` pipeline (fuzz -> audit -> carve) twice on
CS 48x48 against a real KND file — once with the production
:class:`~repro.audit.session.AuditSession` and once with the per-event
oracle session (``tests/oracles/event_session.py``) patched into the
debloat test — and asserts the carved flat-index sets are identical.
This is the pipeline-level closure of the session-level equivalence
properties.
"""

import re

import numpy as np
import pytest

import repro.core.debloat_test as debloat_test
from repro.arraymodel import ArrayFile, ArraySchema
from repro.cli import main
from repro.core.pipeline import Kondo
from repro.fuzzing import FuzzConfig
from repro.workloads import get_program
from tests.oracles.event_session import EventSession

DIMS = (48, 48)


@pytest.fixture(scope="module")
def cs_knd(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("audit-e2e") / "cs48.knd")
    rng = np.random.default_rng(7)
    ArrayFile.create(
        path, ArraySchema(DIMS, "f8"), rng.standard_normal(DIMS)
    ).close()
    return path


def _use_oracle(monkeypatch):
    """Make every audited debloat test record into the oracle session."""
    monkeypatch.setattr(debloat_test, "AuditSession", EventSession)


def _analyze(cs_knd):
    kondo = Kondo(
        get_program("CS"), DIMS,
        fuzz_config=FuzzConfig(rng_seed=3, max_iter=120, stop_iter=120),
    )
    test = kondo.make_test(mode="audited", data_path=cs_knd)
    return kondo.analyze(test=test)


class TestAuditedPipelineEquivalence:
    def test_block_capture_carves_identically(self, cs_knd, monkeypatch):
        block_result = _analyze(cs_knd)
        _use_oracle(monkeypatch)
        event_result = _analyze(cs_knd)
        assert np.array_equal(event_result.observed_flat,
                              block_result.observed_flat)
        assert np.array_equal(event_result.carved_flat,
                              block_result.carved_flat)
        assert event_result.carve.n_hulls == block_result.carve.n_hulls
        assert event_result.carved_flat.size > 0

    def test_cli_block_capture_matches_event(self, cs_knd, capsys,
                                             monkeypatch):
        outputs = {}
        for capture in ("block", "event"):
            if capture == "event":
                _use_oracle(monkeypatch)
            assert main([
                "analyze", "CS", "--audit-data", cs_knd, "--seed", "3",
            ]) == 0
            # Identical carve summary => identical subset statistics;
            # only the wall-clock differs between the two sessions.
            outputs[capture] = re.sub(
                r"in \d+\.\d+s", "in <t>", capsys.readouterr().out
            )
        assert outputs["event"] == outputs["block"]
        assert "Kondo[CS" in outputs["event"]

    def test_cli_rejects_mismatched_dims(self, cs_knd, capsys):
        assert main([
            "analyze", "CS", "--audit-data", cs_knd, "--dims", "32x32",
        ]) == 1
        assert "!=" in capsys.readouterr().err
