"""Unit tests for the kondo CLI."""

import os

import numpy as np
import pytest

from repro.arraymodel import ArrayFile, ArraySchema
from repro.cli import main


@pytest.fixture
def knd_path(tmp_path):
    path = str(tmp_path / "d.knd")
    rng = np.random.default_rng(0)
    ArrayFile.create(
        path, ArraySchema((32, 32), "f8"), rng.standard_normal((32, 32))
    ).close()
    return path


class TestCli:
    def test_programs_lists_all(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        for name in ("CS", "PRL2D", "LDC3D", "ARD", "MSI"):
            assert name in out

    def test_analyze_with_score(self, capsys):
        assert main(["analyze", "CS", "--dims", "32x32", "--score"]) == 0
        out = capsys.readouterr().out
        assert "Kondo[CS" in out
        assert "precision=" in out

    def test_analyze_unknown_program(self, capsys):
        assert main(["analyze", "NOPE"]) == 1
        assert "error" in capsys.readouterr().err

    def test_chaos_is_not_a_subcommand(self, capsys):
        # The chaos drills are tests (`pytest -m chaos`), not a command.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--list"])
        assert exc.value.code == 2
        assert "invalid choice: 'chaos'" in capsys.readouterr().err

    def test_make_data_and_debloat_and_run(self, tmp_path, knd_path, capsys):
        out_path = str(tmp_path / "d.knds")
        assert main(["debloat", "CS", knd_path, out_path]) == 0
        text = capsys.readouterr().out
        assert "smaller" in text

        # A supported run against the subset succeeds.
        assert main(["run", "CS", out_path, "--value", "1,2"]) == 0
        assert "data-missing" in capsys.readouterr().out

    def test_run_on_full_file(self, knd_path, capsys):
        assert main(["run", "CS", knd_path, "--value", "2,3"]) == 0
        assert "all served" in capsys.readouterr().out

    def test_make_data(self, tmp_path, capsys):
        out = str(tmp_path / "x.knd")
        assert main(["make-data", out, "--dims", "16x16",
                     "--chunks", "4x4"]) == 0
        with ArrayFile.open(out) as f:
            assert f.schema.dims == (16, 16)
            assert f.schema.chunks == (4, 4)

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 1

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestCliPersistenceAndGranularity:
    def test_analyze_save_then_debloat_from_artifact(self, tmp_path, knd_path,
                                                     capsys):
        artifact = str(tmp_path / "a.npz")
        assert main(["analyze", "CS", "--dims", "32x32",
                     "--save", artifact]) == 0
        assert "saved analysis artifact" in capsys.readouterr().out
        out_path = str(tmp_path / "p.knds")
        assert main(["debloat", "CS", knd_path, out_path,
                     "--analysis", artifact]) == 0
        assert "from saved analysis" in capsys.readouterr().out

    def test_debloat_chunk_granularity(self, tmp_path, capsys):
        src = str(tmp_path / "c.knd")
        assert main(["make-data", src, "--dims", "32x32",
                     "--chunks", "8x8"]) == 0
        capsys.readouterr()
        out_path = str(tmp_path / "c.knds")
        assert main(["debloat", "CS", src, out_path,
                     "--granularity", "chunk"]) == 0
        assert "smaller" in capsys.readouterr().out

    def test_run_reports_missing_with_exit_code(self, tmp_path, knd_path,
                                                capsys):
        # An intentionally under-fuzzed subset misses supported offsets.
        import numpy as np

        from repro.arraymodel import ArrayFile, DebloatedArrayFile

        src = ArrayFile.open(knd_path)
        subset_path = str(tmp_path / "tiny.knds")
        DebloatedArrayFile.create(
            subset_path, src, keep_flat_indices=np.array([0])
        ).close()
        src.close()
        code = main(["run", "CS", subset_path, "--value", "1,2"])
        assert code == 2
        assert "data-missing" in capsys.readouterr().out


class TestCliCheckpointResume:
    def test_analyze_checkpoint_resume_flags(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.npz")
        assert main(["analyze", "CS", "--dims", "32x32",
                     "--checkpoint", ckpt, "--checkpoint-every", "50"]) == 0
        first = capsys.readouterr().out.strip().splitlines()[0]
        assert os.path.exists(ckpt)
        assert main(["analyze", "CS", "--dims", "32x32",
                     "--checkpoint", ckpt, "--resume"]) == 0
        resumed = capsys.readouterr().out.strip().splitlines()[0]
        # Same campaign facts either way (timing text differs).
        assert first.split(" in ")[0] == resumed.split(" in ")[0]

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["analyze", "CS", "--dims", "32x32", "--resume"]) == 1
        assert "--checkpoint" in capsys.readouterr().err
