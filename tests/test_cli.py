"""Smoke tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.serving import MANIFEST_NAME, save_pipeline


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("fig1", "fig2", "fig3", "taxonomy", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.reps == 15
        assert args.seed == 7

    def test_custom_options(self):
        args = build_parser().parse_args(["fig3", "--reps", "50", "--seed", "1"])
        assert args.reps == 50
        assert args.seed == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestCommands:
    def test_fig1_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "AUC" in out

    def test_fig2_prints_circles(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "circle r=2.0" in out

    def test_fig3_small(self, capsys):
        assert main(["fig3", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "iFor(Curvmap)" in out
        assert "OCSVM(Curvmap)" in out
        assert "c=0.25" in out


@pytest.fixture()
def saved_pipeline(tmp_path):
    """A small fitted pipeline persisted to disk, plus a matching batch."""
    from repro.core.pipeline import GeometricOutlierPipeline
    from repro.data.synthetic import make_taxonomy_dataset
    from repro.detectors import IsolationForest

    data, _ = make_taxonomy_dataset(
        "correlation", n_inliers=30, n_outliers=4, random_state=0
    )
    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=25, random_state=0), n_basis=10
    ).fit(data)
    model_dir = tmp_path / "model"
    save_pipeline(pipeline, model_dir)
    batch_path = tmp_path / "batch.npz"
    np.savez(batch_path, values=data.values, grid=data.grid)
    return model_dir, batch_path


class TestServeScore:
    def test_happy_path_writes_scores(self, saved_pipeline, tmp_path, capsys):
        model_dir, batch_path = saved_pipeline
        output = tmp_path / "scores.npz"
        rc = main([
            "serve-score", "--pipeline", str(model_dir), "--data", str(batch_path),
            "--chunk-size", "8", "--output", str(output),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve-score" in out
        assert "curves scored" in out
        assert np.load(output)["scores"].shape == (34,)

    def test_missing_pipeline_directory(self, saved_pipeline, tmp_path, capsys):
        _, batch_path = saved_pipeline
        rc = main(["serve-score", "--pipeline", str(tmp_path / "nope"),
                   "--data", str(batch_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_pipeline_manifest(self, saved_pipeline, capsys):
        model_dir, batch_path = saved_pipeline
        (model_dir / MANIFEST_NAME).write_text("{broken", encoding="utf-8")
        rc = main(["serve-score", "--pipeline", str(model_dir),
                   "--data", str(batch_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_manifest_format(self, saved_pipeline, capsys):
        model_dir, batch_path = saved_pipeline
        (model_dir / MANIFEST_NAME).write_text(
            json.dumps({"format": "other"}), encoding="utf-8"
        )
        assert main(["serve-score", "--pipeline", str(model_dir),
                     "--data", str(batch_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_data_file(self, saved_pipeline, tmp_path, capsys):
        model_dir, _ = saved_pipeline
        rc = main(["serve-score", "--pipeline", str(model_dir),
                   "--data", str(tmp_path / "nothing.npz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_batch_rejected(self, saved_pipeline, tmp_path, capsys):
        model_dir, _ = saved_pipeline
        empty = tmp_path / "empty.npz"
        np.savez(empty, values=np.zeros((0, 5, 2)), grid=np.linspace(0, 1, 5))
        rc = main(["serve-score", "--pipeline", str(model_dir), "--data", str(empty)])
        assert rc == 2
        assert "no curves" in capsys.readouterr().err

    def test_data_missing_required_arrays(self, saved_pipeline, tmp_path, capsys):
        model_dir, _ = saved_pipeline
        bad = tmp_path / "bad.npz"
        np.savez(bad, wrong=np.zeros(3))
        rc = main(["serve-score", "--pipeline", str(model_dir), "--data", str(bad)])
        assert rc == 2
        assert "missing arrays" in capsys.readouterr().err

    def test_missing_required_options_exit_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-score"])
        assert excinfo.value.code != 0

    def test_unknown_subcommand_exit_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0


@pytest.fixture()
def stream_npz(tmp_path):
    """A univariate curve stream saved as the .npz the CLI consumes."""
    rng = np.random.default_rng(9)
    values = rng.standard_normal((120, 24)).cumsum(axis=1) / 5.0
    path = tmp_path / "stream.npz"
    np.savez(path, values=values, grid=np.linspace(0.0, 1.0, 24))
    return path


class TestStreamScore:
    def test_happy_path_writes_scores_and_flags(self, stream_npz, tmp_path, capsys):
        output = tmp_path / "out.npz"
        rc = main([
            "stream-score", "--data", str(stream_npz), "--kind", "funta",
            "--window", "32", "--chunk-size", "16", "--min-reference", "16",
            "--drift-baseline", "32", "--drift-recent", "16",
            "--output", str(output),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream-score" in out
        assert "curves scored" in out
        with np.load(output) as bundle:
            scores = bundle["scores"]
            flags = bundle["flags"]
        assert scores.shape == (120,) and flags.shape == (120,)
        assert np.isnan(scores[:16]).all()  # warm-up curves
        assert np.isfinite(scores[16:]).all()

    def test_reservoir_policy_and_sketch_threshold(self, stream_npz, capsys):
        rc = main([
            "stream-score", "--data", str(stream_npz), "--kind", "halfspace",
            "--policy", "reservoir", "--threshold-mode", "sketch",
            "--window", "32", "--min-reference", "8",
            "--drift-baseline", "32", "--drift-recent", "16",
        ])
        assert rc == 0
        assert "reservoir" in capsys.readouterr().out

    def test_removed_p2_threshold_exits_2(self, stream_npz, capsys):
        rc = main([
            "stream-score", "--data", str(stream_npz), "--threshold-mode", "p2",
        ])
        assert rc == 2
        assert "sketch" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        rc = main(["stream-score", "--data", str(tmp_path / "nope.npz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_options_exit_2(self, stream_npz, capsys):
        # min_reference beyond the window capacity is a validation error.
        rc = main([
            "stream-score", "--data", str(stream_npz),
            "--window", "8", "--min-reference", "64",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestServeScoreDiagnostics:
    def test_state_type_corruption_exits_2_with_one_line_error(
        self, saved_pipeline, capsys
    ):
        """A malformed manifest prints one diagnostic line, not a traceback."""
        model_dir, batch_path = saved_pipeline
        manifest_path = model_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["state"]["eval_grid"] = "hello"
        manifest_path.write_text(json.dumps(manifest))
        rc = main(["serve-score", "--pipeline", str(model_dir),
                   "--data", str(batch_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot restore pipeline" in err
        assert "Traceback" not in err


class TestServeCommand:
    def test_parser_accepts_serve_options(self):
        args = build_parser().parse_args([
            "serve", "--pipeline", "ecg=/models/ecg", "--pipeline", "eeg=/models/eeg",
            "--port", "9000", "--workers", "4", "--high-water", "512",
        ])
        assert args.command == "serve"
        assert args.pipeline == ["ecg=/models/ecg", "eeg=/models/eeg"]
        assert (args.port, args.workers, args.high_water) == (9000, 4, 512)

    def test_pipeline_without_equals_exits_2(self, capsys):
        rc = main(["serve", "--pipeline", "just-a-path"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "NAME=DIR" in err

    def test_duplicate_pipeline_name_exits_2(self, saved_pipeline, capsys):
        model_dir, _ = saved_pipeline
        rc = main(["serve", "--pipeline", f"m={model_dir}",
                   "--pipeline", f"m={model_dir}"])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_manifest_directory_exits_2(self, tmp_path, capsys):
        rc = main(["serve", "--pipeline", f"m={tmp_path / 'nope'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
