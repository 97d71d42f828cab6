"""CLI surface: subcommands, exit codes, renderings, determinism."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hsclassify import cli
from hsclassify.cli import main
from hsclassify.corpus import chronological_split, load_cases
from hsclassify.pipeline import CandidateReport, _from_dict

from conftest import drop_first_case_id, edit_checkpoint_arrays, rehash_checkpoint, write_jsonl

SMALL_SYNTH = [
    "--headings", "4",
    "--subheadings-per-heading", "2",
    "--train-per-subheading", "8",
    "--validation-per-subheading", "2",
    "--test-per-subheading", "2",
    "--dimension", "16",
]

CHECKPOINT_FILES = [
    "manifest.json",
    "heading_classifier.npz",
    "subheading_classifier.npz",
    "case_index.npz",
    "idf.npz",
    "vectors.npz",
    "stopwords.txt",
    "manual.jsonl",
]


@pytest.fixture(scope="module")
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_dir(runner, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    result = runner.invoke(
        main, ["--seed", "13", "synth", "--out-dir", str(directory), *SMALL_SYNTH]
    )
    assert result.exit_code == 0, result.output
    # Faster training for CLI runs.
    config_path = directory / "config.json"
    config = json.loads(config_path.read_text())
    config["heading_train"] = {"epochs": 25, "learning_rate": 0.5}
    config["subheading_train"] = {"epochs": 25, "learning_rate": 0.5}
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return directory


@pytest.fixture(scope="module")
def trained_dir(runner, corpus_dir) -> Path:
    result = runner.invoke(
        main, ["--config", str(corpus_dir / "config.json"), "--seed", "13", "train"]
    )
    assert result.exit_code == 0, result.output
    return corpus_dir


def checkpoint_bytes(checkpoint: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(checkpoint.iterdir())}


def write_config(corpus_dir: Path, path: Path, **changes) -> Path:
    """The corpus config with absolute input paths and ``changes``, written to ``path``."""
    config = json.loads((corpus_dir / "config.json").read_text())
    config["cases"] = str(corpus_dir / "cases.jsonl")
    config["manual"] = str(corpus_dir / "manual.jsonl")
    config["vectors"] = str(corpus_dir / "vectors.txt")
    config.update(changes)
    path.write_text(json.dumps(config))
    return path


class TestSynthCommand:
    def test_outputs_listed(self, corpus_dir):
        for name in ("cases.jsonl", "manual.jsonl", "vectors.txt", "config.json"):
            assert (corpus_dir / name).exists()

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_dimension_below_one_exit_2(self, runner, tmp_path, dimension):
        out = tmp_path / "corpus"
        result = runner.invoke(main, ["synth", "--out-dir", str(out), "--dimension", dimension])
        assert result.exit_code == 2, result.output
        assert "vector_dimension must be >= 1" in result.output
        assert not out.exists()


class TestTrainCommand:
    def test_checkpoint_structure(self, trained_dir):
        checkpoint = trained_dir / "checkpoint"
        names = {p.name for p in checkpoint.iterdir()}
        assert set(CHECKPOINT_FILES) <= names
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(CHECKPOINT_FILES[1:])

    def test_missing_manual_file_exit_2(self, runner, corpus_dir, tmp_path):
        # Paths resolve relative to the config file, so point the good inputs
        # back at the corpus and only the manual at a missing file.
        config = json.loads((corpus_dir / "config.json").read_text())
        config["manual"] = "does-not-exist.jsonl"
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(bad), "train"])
        assert result.exit_code == 2
        assert "does-not-exist.jsonl" in result.output

    def test_rerun_same_seed_byte_identical(self, runner, corpus_dir, trained_dir, tmp_path_factory):
        first = checkpoint_bytes(trained_dir / "checkpoint")
        result = runner.invoke(
            main, ["--config", str(corpus_dir / "config.json"), "--seed", "13", "train"]
        )
        assert result.exit_code == 0
        second = checkpoint_bytes(trained_dir / "checkpoint")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    @pytest.fixture(scope="class")
    def without_manual_8501(self, runner, corpus_dir, tmp_path_factory):
        """A train run on the corpus with heading 8501's manual entry removed."""
        records = (corpus_dir / "manual.jsonl").read_text().splitlines()
        assert json.loads(records[0])["heading"] == "8501"
        directory = tmp_path_factory.mktemp("without_8501")
        (directory / "manual.jsonl").write_text("".join(r + "\n" for r in records[1:]))
        config = write_config(
            corpus_dir,
            directory / "config.json",
            manual=str(directory / "manual.jsonl"),
            checkpoint_dir=str(directory / "ckpt"),
        )
        result = runner.invoke(main, ["--config", str(config), "train"])
        assert result.exit_code == 0, result.output
        return result

    def test_missing_manual_entry_warns_in_one_line(self, corpus_dir, without_manual_8501):
        train = chronological_split(load_cases(corpus_dir / "cases.jsonl")).train
        count = sum(1 for case in train if case.label.heading == "8501")
        # The toy corpus's classes separate, so both temperatures fit at the lower bound.
        assert without_manual_8501.stderr.splitlines() == [
            f"warning: no manual entry for gold heading 8501; its {count} training cases "
            "train on the description alone",
            *(f"warning: {stage} stage: the fitted temperature 0.0500 is at the search bound 0.05"
              for stage in ("heading", "subheading")),
        ]
        assert "cli.py:" not in without_manual_8501.output

    def test_missing_manual_entry_is_not_repeated_on_stdout(self, without_manual_8501):
        lines = without_manual_8501.stdout.splitlines()
        assert lines[-1].startswith("checkpoint written to ")
        assert not [line for line in lines if line.startswith("warning:")]

    def test_no_config_exit_2(self, runner):
        result = runner.invoke(main, ["train"])
        assert result.exit_code == 2


class TestPredictCommand:
    def test_text_rendering(self, runner, trained_dir):
        cases = (trained_dir / "cases.jsonl").read_text().splitlines()
        description = json.loads(cases[0])["description"]
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "predict", description]
        )
        assert result.exit_code == 0, result.output
        assert "Heading candidates:" in result.output
        assert "Subheading candidates:" in result.output

    def test_structured_roundtrip(self, runner, trained_dir):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[0])[
            "description"
        ]
        result = runner.invoke(
            main,
            [
                "--config", str(trained_dir / "config.json"),
                "--format", "structured",
                "predict", description,
            ],
        )
        assert result.exit_code == 0, result.output
        parsed = _from_dict(CandidateReport, json.loads(result.output))
        assert parsed.description == description
        assert len(parsed.heading_candidates) == 3
        assert len(parsed.subheading_candidates) == 3

    def test_structured_equals_text_candidates(self, runner, trained_dir):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[3])[
            "description"
        ]
        config = ["--config", str(trained_dir / "config.json")]
        text = runner.invoke(main, [*config, "predict", description]).output
        structured = runner.invoke(
            main, [*config, "--format", "structured", "predict", description]
        ).output
        report = _from_dict(CandidateReport, json.loads(structured))
        for candidate in report.heading_candidates:
            assert f"{candidate.heading}  score {candidate.score:.4f}" in text
            for sentence in candidate.key_sentences:
                assert sentence in text
        for candidate in report.subheading_candidates:
            assert f"{candidate.subheading}  score {candidate.score:.4f}" in text

    def test_empty_description_exit_2(self, runner, trained_dir):
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "predict", "   "]
        )
        assert result.exit_code == 2

    def test_input_file_source(self, runner, trained_dir, tmp_path):
        description = json.loads((trained_dir / "cases.jsonl").read_text().splitlines()[0])[
            "description"
        ]
        config = str(trained_dir / "config.json")
        reports = []
        # A leading byte-order mark is skipped, as the corpus loaders skip it.
        for name, mark in [("item.txt", b""), ("marked.txt", b"\xef\xbb\xbf")]:
            source = tmp_path / name
            source.write_bytes(mark + description.encode("utf-8"))
            result = runner.invoke(
                main, ["--config", config, "--format", "structured", "predict", "--input-file",
                       str(source)],
            )
            assert result.exit_code == 0, result.output
            reports.append(json.loads(result.stdout))
        assert reports[0]["description"] == description.strip()
        assert reports[1] == reports[0]

    def test_input_that_is_not_utf8_exits_2_naming_the_file(self, runner, trained_dir, tmp_path):
        source = tmp_path / "item.txt"
        source.write_bytes(b"steel bolts\xff\n")
        config = trained_dir / "config.json"
        result = runner.invoke(
            main, ["--config", str(config), "predict", "--input-file", str(source)]
        )
        assert result.exit_code == 2
        assert f"line 1: {source}: not UTF-8 (invalid start byte)" in result.output
        # ``train`` reads the stopword file among its inputs.
        stopwords = tmp_path / "stop.txt"
        stopwords.write_bytes(b"the\n\xe9t\xe9\n")
        config = write_config(trained_dir, tmp_path / "config.json", stopwords=str(stopwords),
                              checkpoint_dir=str(tmp_path / "checkpoint"))
        result = runner.invoke(main, ["--config", str(config), "train"])
        assert result.exit_code == 2
        assert f"line 2: {stopwords}: not UTF-8" in result.output
        assert not (tmp_path / "checkpoint").exists()

    def test_missing_checkpoint_exit_2(self, runner, corpus_dir, tmp_path):
        config = json.loads((corpus_dir / "config.json").read_text())
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["manual"] = str(corpus_dir / "manual.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        config["checkpoint_dir"] = str(tmp_path / "no-checkpoint")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(path), "predict", "solar panel"])
        assert result.exit_code == 2


class TestEvaluateCommand:
    def test_report_schema(self, runner, trained_dir):
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "evaluate"]
        )
        assert result.exit_code == 0, result.output
        metrics = json.loads((trained_dir / "checkpoint" / "metrics.json").read_text())
        for key in ("hs4_top1", "hs6_top1", "hs6_top3", "hs6_top5"):
            assert key in metrics
        assert (trained_dir / "checkpoint" / "metrics.txt").exists()

    def test_gold_evidence_metrics_present(self, runner, trained_dir):
        runner.invoke(main, ["--config", str(trained_dir / "config.json"), "evaluate"])
        metrics = json.loads((trained_dir / "checkpoint" / "metrics.json").read_text())
        assert metrics["retrieval_precision"] is not None
        assert metrics["retrieval_recall"] is not None

    def test_consecutive_runs_identical_reports(self, runner, trained_dir, tmp_path_factory):
        out_a = tmp_path_factory.mktemp("eval-a")
        out_b = tmp_path_factory.mktemp("eval-b")
        config = ["--config", str(trained_dir / "config.json")]
        assert runner.invoke(main, [*config, "evaluate", "--output-dir", str(out_a)]).exit_code == 0
        assert runner.invoke(main, [*config, "evaluate", "--output-dir", str(out_b)]).exit_code == 0
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()
        assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()


class TestCalibrateCommand:
    def test_calibrate_updates_checkpoint(self, runner, trained_dir):
        before = json.loads((trained_dir / "checkpoint" / "manifest.json").read_text())
        result = runner.invoke(
            main, ["--config", str(trained_dir / "config.json"), "calibrate"]
        )
        assert result.exit_code == 0, result.output
        after = json.loads((trained_dir / "checkpoint" / "manifest.json").read_text())
        assert after["heading_temperature"] == pytest.approx(
            before["heading_temperature"], rel=1e-6
        )

    def test_no_usable_validation_case_keeps_temperatures(self, runner, trained_dir, tmp_path):
        self.check_every_stage_keeps_its_temperature(
            runner, trained_dir, trained_dir / "checkpoint", tmp_path, ("heading", "subheading")
        )

    def test_ablation_head_keeps_and_reports_its_temperature(
        self, runner, trained_dir, tmp_path
    ):
        checkpoint = tmp_path / "ablation-checkpoint"
        config = write_config(trained_dir, tmp_path / "train.json", checkpoint_dir=str(checkpoint))
        result = runner.invoke(
            main, ["--config", str(config), "--seed", "13", "train", "--with-ablation"]
        )
        assert result.exit_code == 0, result.output
        assert re.search(r"^temperatures: .*  ablation \d+\.\d{4}$", result.output, re.MULTILINE)
        self.check_every_stage_keeps_its_temperature(
            runner, trained_dir, checkpoint, tmp_path, ("heading", "subheading", "ablation")
        )

    @staticmethod
    def check_every_stage_keeps_its_temperature(runner, trained_dir, source, tmp_path, stages):
        # Every validation case gets a code the model never saw, so no stage can be refitted.
        cases_file = trained_dir / "cases.jsonl"
        validation = {c.id for c in chronological_split(load_cases(cases_file)).validation}
        records = [json.loads(line) for line in cases_file.read_text().splitlines()]
        for record in records:
            if record["id"] in validation:
                record["hs_code"] = "9999.99"
        write_jsonl(tmp_path / "cases.jsonl", records)
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(source, checkpoint)
        config = write_config(
            trained_dir,
            tmp_path / "config.json",
            cases=str(tmp_path / "cases.jsonl"),
            checkpoint_dir=str(checkpoint),
        )
        before = json.loads((checkpoint / "manifest.json").read_text())
        result = runner.invoke(main, ["--config", str(config), "calibrate"])
        assert result.exit_code == 0, result.output
        # Python prints a warning once per message and source line; each
        # stage's message names the stage, so each is printed.
        assert result.stderr.splitlines() == [
            f"warning: {stage} stage: no usable validation cases; the temperature is kept"
            for stage in stages
        ]
        assert "cli.py:" not in result.output
        after = json.loads((checkpoint / "manifest.json").read_text())
        for stage in stages:
            assert before[f"{stage}_temperature"] != 1.0
            assert after[f"{stage}_temperature"] == before[f"{stage}_temperature"]
        summary = "temperatures: " + "  ".join(
            f"{stage} {before[f'{stage}_temperature']:.4f}" for stage in stages
        )
        assert summary in result.stdout.splitlines()


class TestCasesAreTheOnlyInput:
    def test_evaluate_and_calibrate_without_manual_and_vectors(self, runner, trained_dir, tmp_path):
        # Both read the checkpoint and the cases file, never the manual or the vectors.
        missing = {"manual": str(tmp_path / "none.jsonl"), "vectors": str(tmp_path / "none.txt")}
        outputs = {}
        for name, changes in (("normal", {}), ("missing", missing)):
            checkpoint = tmp_path / name
            shutil.copytree(trained_dir / "checkpoint", checkpoint)
            config = write_config(
                trained_dir, tmp_path / f"{name}.json", checkpoint_dir=str(checkpoint), **changes
            )
            for command in (["evaluate", "--output-dir", str(checkpoint)], ["calibrate"]):
                result = runner.invoke(main, ["--config", str(config), *command])
                assert result.exit_code == 0, result.output
            manifest = json.loads((checkpoint / "manifest.json").read_text())
            temperatures = [manifest[f"{stage}_temperature"] for stage in ("heading", "subheading")]
            outputs[name] = (checkpoint / "metrics.json").read_bytes(), temperatures
        assert outputs["missing"] == outputs["normal"]


class TestPhotovoltaicFixture:
    """A hand-built English corpus where solar-cell items map to 854140."""

    PV_WORDS = ["photovoltaic", "solar", "cell", "panel", "silicon", "diode"]
    TV_WORDS = ["monitor", "screen", "display", "projector", "reception"]

    def build_corpus(self, directory: Path) -> Path:
        import itertools

        axes = [
            [1, 0, 0, 0], [0.9, 0.1, 0, 0], [0.8, 0, 0.2, 0],
            [0.9, 0, 0, 0.1], [0.7, 0.3, 0, 0], [0.8, 0.2, 0, 0],
        ]
        tv_axes = [[0, 1, 0, 0], [0, 0.9, 0.1, 0], [0, 0.8, 0, 0.2], [0.1, 0.9, 0, 0], [0, 0.7, 0.3, 0]]
        with open(directory / "vectors.txt", "w") as handle:
            for word, vec in zip(self.PV_WORDS, axes):
                handle.write(word + " " + " ".join(map(str, vec)) + "\n")
            for word, vec in zip(self.TV_WORDS, tv_axes):
                handle.write(word + " " + " ".join(map(str, vec)) + "\n")

        months = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        records = []
        counter = itertools.count(1)
        for code, words in (("8541.40", self.PV_WORDS), ("8528.52", self.TV_WORDS)):
            for i, month in enumerate(months):
                picked = [words[(i + j) % len(words)] for j in range(4)]
                records.append(
                    {
                        "id": f"fx-{next(counter):03d}",
                        "description": " ".join(picked) + " apparatus",
                        "hs_code": code,
                        "date": f"2024-{month:02d}-10",
                        "origin": "domestic",
                    }
                )
        with open(directory / "cases.jsonl", "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

        manual = [
            {
                "heading": "8541",
                "sentences": [
                    "Photosensitive devices including photovoltaic cell assemblies in a panel",
                    "Silicon diode articles for converting light",
                ],
            },
            {
                "heading": "8528",
                "sentences": [
                    "Monitor and projector apparatus with a display screen",
                    "Reception apparatus for television",
                ],
            },
        ]
        with open(directory / "manual.jsonl", "w") as handle:
            for record in manual:
                handle.write(json.dumps(record) + "\n")

        config = {
            "cases": "cases.jsonl",
            "manual": "manual.jsonl",
            "vectors": "vectors.txt",
            "checkpoint_dir": "checkpoint",
            "seed": 5,
            "heading_train": {"epochs": 25, "learning_rate": 0.5},
            "subheading_train": {"epochs": 25, "learning_rate": 0.5},
        }
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_photovoltaic_description_maps_to_854140(self, runner, tmp_path):
        config_path = self.build_corpus(tmp_path)
        assert runner.invoke(main, ["--config", str(config_path), "train"]).exit_code == 0
        description = (
            "Photovoltaic cell panel silicon embedded in plastic with an aluminum frame, "
            "which converts sunlight into electricity, maximum power of 135W"
        )
        result = runner.invoke(
            main, ["--config", str(config_path), "--format", "structured", "predict", description]
        )
        assert result.exit_code == 0, result.output
        report = _from_dict(CandidateReport, json.loads(result.output))
        assert "854140" in [c.subheading for c in report.subheading_candidates]
        assert report.heading_candidates[0].heading == "8541"
        assert report.heading_candidates[0].key_sentences  # evidence retrieved


class TestTrainVariants:
    def test_no_evidence_flag_exit_2(self, runner, corpus_dir, tmp_path):
        # Stage 3 always reads key sentences; --with-ablation trains the
        # description-only head.
        path = write_config(corpus_dir, tmp_path / "config.json", checkpoint_dir="ckpt-noev")
        result = runner.invoke(main, ["--config", str(path), "train", "--no-evidence"])
        assert result.exit_code == 2, result.output
        assert "--no-evidence" in result.output
        assert not (tmp_path / "ckpt-noev").exists()

    def test_with_ablation_flag(self, runner, corpus_dir, tmp_path):
        config = json.loads((corpus_dir / "config.json").read_text())
        config["cases"] = str(corpus_dir / "cases.jsonl")
        config["manual"] = str(corpus_dir / "manual.jsonl")
        config["vectors"] = str(corpus_dir / "vectors.txt")
        config["checkpoint_dir"] = str(tmp_path / "ckpt-abl")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(
            main, ["--config", str(path), "--seed", "13", "train", "--with-ablation"]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "ckpt-abl" / "ablation_classifier.npz").exists()
        manifest = json.loads((tmp_path / "ckpt-abl" / "manifest.json").read_text())
        assert "ablation_classifier.npz" in manifest["files"]
        caps = {stage: config[f"{stage}_train"]["epochs"] for stage in ("heading", "subheading")}
        caps["ablation"] = caps["subheading"]
        for stage, cap in caps.items():
            line = re.search(
                rf"^{stage}: best epoch (\d+)/(\d+)  val top-1 ([01]\.\d{{4}})"
                rf"  epoch-mean train loss \d+\.\d{{4}}"
                rf"(  \(stopped after (\d+) of (\d+) epochs: validation top-1 reached 1\.0\))?$",
                result.output,
                re.MULTILINE,
            )
            assert line, result.output
            best, run = int(line[1]), int(line[2])
            assert 1 <= best <= run <= cap
            if line[4]:  # stopped at its first perfect epoch, which it keeps
                assert (int(line[5]), int(line[6])) == (run, cap)
                assert run < cap and best == run and line[3] == "1.0000"
            else:  # every epoch ran
                assert run == cap


def truncate_case_index(checkpoint: Path) -> None:
    path = checkpoint / "case_index.npz"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_one_case_id(checkpoint: Path) -> None:
    edit_checkpoint_arrays(checkpoint, "case_index.npz", drop_first_case_id)


def edit_counts(checkpoint: Path, edit) -> None:
    """Replace the case index's bucket counts by ``edit(counts)``."""
    edit_checkpoint_arrays(
        checkpoint, "case_index.npz", lambda arrays: {**arrays, "counts": edit(arrays["counts"])}
    )


def counts_one_entry_short(checkpoint: Path) -> None:
    edit_counts(checkpoint, lambda counts: counts[:-1])


def counts_sum_one_row_short(checkpoint: Path) -> None:
    edit_counts(checkpoint, lambda counts: counts - (np.arange(len(counts)) == 0))


def counts_with_a_negative_entry(checkpoint: Path) -> None:
    """The second bucket's rows moved to the first, and one more: the sum still matches."""
    def edit(counts):
        counts[0] += counts[1] + 1
        counts[1] = -1
        return counts

    edit_counts(checkpoint, edit)


def counts_as_floats(checkpoint: Path) -> None:
    edit_counts(checkpoint, lambda counts: counts.astype(float))


def delete_heading_temperature(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["heading_temperature"]
    path.write_text(json.dumps(manifest))


def downgrade_to_format_1(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 1}))


def downgrade_to_format_2(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 2}))


def downgrade_to_format_3(checkpoint: Path) -> None:
    """A format-3 manifest: its config has the keys format 4 dropped."""
    path = checkpoint / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 3
    config = manifest["config"]
    config.update(mask_to_heading=False, evidence_per_candidate=False, idf_documents="cases+manual")
    config["retrieval"]["min_keyword_idf"] = 0.0
    path.write_text(json.dumps(manifest))


def downgrade_to_format_4(checkpoint: Path) -> None:
    """A format-4 manifest: its config has the key format 5 dropped."""
    path = checkpoint / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 4
    manifest["config"]["use_evidence"] = True
    path.write_text(json.dumps(manifest))


def downgrade_to_format_5(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 5}))


def downgrade_to_format_6(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 6}))


def nan_first_vector(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["vectors"][0, 0] = np.nan
        return arrays

    edit_checkpoint_arrays(checkpoint, "vectors.npz", edit)


def nan_first_case_embedding(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["embeddings"][0, 0] = np.nan
        return arrays

    edit_checkpoint_arrays(checkpoint, "case_index.npz", edit)


def nan_first_weight(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["weights"][0] = np.nan
        return arrays

    edit_checkpoint_arrays(checkpoint, "idf.npz", edit)


def nan_heading_bias(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["bias"][0] = np.nan
        return arrays

    edit_checkpoint_arrays(checkpoint, "heading_classifier.npz", edit)


def nan_subheading_weight(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["weights"][0, 0] = np.nan
        return arrays

    edit_checkpoint_arrays(checkpoint, "subheading_classifier.npz", edit)


def negative_first_weight(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["weights"][0] = -1.0
        return arrays

    edit_checkpoint_arrays(checkpoint, "idf.npz", edit)


def huge_first_vector(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["vectors"][0, 0] = 1e60
        return arrays

    edit_checkpoint_arrays(checkpoint, "vectors.npz", edit)


def tiny_first_vector(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["vectors"][0, 0] = 1e-60
        return arrays

    edit_checkpoint_arrays(checkpoint, "vectors.npz", edit)


def huge_first_case_embedding(checkpoint: Path) -> None:
    """A case row that no encoder gives: finite, but far from unit length."""
    def edit(arrays):
        arrays["embeddings"][0] *= 1e200
        return arrays

    edit_checkpoint_arrays(checkpoint, "case_index.npz", edit)


def halved_first_case_embedding(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["embeddings"][0] *= 0.5
        return arrays

    edit_checkpoint_arrays(checkpoint, "case_index.npz", edit)


def drop_last_weight(checkpoint: Path) -> None:
    def edit(arrays):
        arrays["weights"] = arrays["weights"][:-1]
        return arrays

    edit_checkpoint_arrays(checkpoint, "idf.npz", edit)


def delete_idf(checkpoint: Path) -> None:
    (checkpoint / "idf.npz").unlink()


def ablation_temperature_without_head(checkpoint: Path) -> None:
    path = checkpoint / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "ablation_temperature": 1.0}))
    rehash_checkpoint(checkpoint)


class TestExitCodes:
    """2 for bad user input, 1 for a corrupt checkpoint; never a traceback."""

    def assert_directory_refused(self, result, directory: Path) -> None:
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"not a regular file: {directory}" in result.output

    def test_config_that_is_a_directory_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["--config", str(tmp_path), "train"])
        self.assert_directory_refused(result, tmp_path)

    def test_input_file_that_is_a_directory_exit_2(self, runner, trained_dir, tmp_path):
        config = str(trained_dir / "config.json")
        result = runner.invoke(main, ["--config", config, "predict", "--input-file", str(tmp_path)])
        self.assert_directory_refused(result, tmp_path)

    def test_cases_that_are_a_directory_exit_2(self, runner, corpus_dir, tmp_path):
        config = write_config(corpus_dir, tmp_path / "config.json", cases=str(tmp_path),
                              checkpoint_dir=str(tmp_path / "checkpoint"))
        result = runner.invoke(main, ["--config", str(config), "train"])
        self.assert_directory_refused(result, tmp_path)
        assert not (tmp_path / "checkpoint").exists()

    @pytest.mark.parametrize("within", [False, True])
    def test_checkpoint_dir_under_a_file_exit_2_before_fitting(
        self, runner, corpus_dir, tmp_path, monkeypatch, within
    ):
        cases = tmp_path / "cases.jsonl"
        shutil.copy(corpus_dir / "cases.jsonl", cases)
        checkpoint = cases / "checkpoint" if within else cases
        config = write_config(corpus_dir, tmp_path / "config.json", checkpoint_dir=str(checkpoint))
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *args: fits.append(args))
        result = runner.invoke(main, ["--config", str(config), "train"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"checkpoint_dir is not a directory: {cases}" in result.output
        assert fits == []
        assert cases.read_bytes() == (corpus_dir / "cases.jsonl").read_bytes()

    @pytest.mark.parametrize("value", ["1e-60", "-1e60", "nan"])
    def test_vector_value_out_of_range_exit_2(self, runner, corpus_dir, tmp_path, value):
        lines = (corpus_dir / "vectors.txt").read_text(encoding="utf-8").splitlines()
        token, *values = lines[2].split(" ")
        lines[2] = " ".join([token, value, *values[1:]])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(corpus_dir, tmp_path / "config.json", vectors=str(vectors),
                              checkpoint_dir=str(tmp_path / "checkpoint"))
        result = runner.invoke(main, ["--config", str(config), "train"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        named = f"line 3: {vectors}: token {token!r} has the vector value {float(value)!r}"
        assert named in result.output
        assert not (tmp_path / "checkpoint").exists()

    @pytest.mark.parametrize("top_level", ["[]", '"cases.jsonl"', "7"])
    def test_config_that_is_not_a_json_object_exit_2(self, runner, tmp_path, top_level):
        path = tmp_path / "c.json"
        path.write_text(top_level)
        result = runner.invoke(main, ["--config", str(path), "evaluate"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"config file {path} is invalid" in result.output

    @pytest.mark.parametrize(
        "corrupt, bad_file",
        [
            (truncate_case_index, "case_index.npz"),
            (drop_one_case_id, "case_index.npz"),
            (counts_one_entry_short, "case_index.npz: 7 bucket counts for the 8 label-space"),
            (counts_sum_one_row_short, "case_index.npz: row counts of embeddings, bucket sizes"),
            (counts_with_a_negative_entry, "case_index.npz: ValueError: a bucket size is negative"),
            (counts_as_floats, "case_index.npz: ValueError: counts must be one array of integers"),
            (delete_idf, "idf.npz"),
            (delete_heading_temperature, "manifest.json"),
            (downgrade_to_format_1, "manifest.json: unsupported checkpoint format 1; retrain"),
            (downgrade_to_format_2, "manifest.json: unsupported checkpoint format 2; retrain"),
            (downgrade_to_format_3, "manifest.json: unsupported checkpoint format 3; retrain"),
            (downgrade_to_format_4, "manifest.json: unsupported checkpoint format 4; retrain"),
            (downgrade_to_format_5, "manifest.json: unsupported checkpoint format 5; retrain"),
            (downgrade_to_format_6, "manifest.json: unsupported checkpoint format 6; retrain"),
            (nan_first_vector, "vectors.npz"),
            (nan_first_case_embedding, "case_index.npz"),
            (nan_first_weight, "idf.npz: token "),
            (nan_heading_bias, "heading_classifier.npz: ValueError: parameters must be finite"),
            (nan_subheading_weight,
             "subheading_classifier.npz: ValueError: parameters must be finite"),
            (drop_last_weight, "idf.npz: idf weights of shape"),
            (negative_first_weight, "idf.npz: token "),
            (huge_first_vector, "vectors.npz: token "),
            (tiny_first_vector, "vectors.npz: token "),
            (huge_first_case_embedding, "case_index.npz: case "),
            (halved_first_case_embedding, "case_index.npz: ValueError: an embedding row"),
            (ablation_temperature_without_head, "ckpt: ValueError: an ablation head needs"),
        ],
    )
    def test_corrupt_checkpoint_exit_1(self, runner, trained_dir, tmp_path, corrupt, bad_file):
        self.assert_predict_names(runner, trained_dir, tmp_path, corrupt, bad_file)

    @pytest.mark.parametrize("name", CHECKPOINT_FILES)
    def test_flipped_byte_exit_1(self, runner, trained_dir, tmp_path, name):
        def flip(checkpoint: Path) -> None:
            data = bytearray((checkpoint / name).read_bytes())
            # The last ASCII letter or digit: content rather than syntax, so
            # only a hash can tell the flip.
            index = max(i for i in range(len(data)) if data[i : i + 1].isalnum())
            data[index] ^= 0x01
            (checkpoint / name).write_bytes(bytes(data))

        self.assert_predict_names(runner, trained_dir, tmp_path, flip, name)

    @staticmethod
    def assert_predict_names(runner, trained_dir, tmp_path, corrupt, bad_file) -> None:
        """``predict`` on a corrupted copy of the checkpoint prints one error naming the file."""
        checkpoint = tmp_path / "ckpt"
        shutil.copytree(trained_dir / "checkpoint", checkpoint)
        corrupt(checkpoint)
        config = write_config(trained_dir, tmp_path / "config.json", checkpoint_dir=str(checkpoint))
        result = runner.invoke(main, ["--config", str(config), "predict", "solar panel"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        (line,) = result.output.strip().splitlines()
        assert line.startswith("Error:")
        assert bad_file in line

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("pipeline", "use_evidnce", True),
            ("heading_train", "epochs", 0),
            ("retrieval", "coverage_threshold", 2),
            # Keys of removed modes: an old config file is refused, not half-read.
            ("pipeline", "idf_documents", "cases+manual"),
            ("pipeline", "mask_to_heading", False),
            ("pipeline", "evidence_per_candidate", False),
            ("pipeline", "use_evidence", True),
            ("retrieval", "min_keyword_idf", 0.0),
        ],
    )
    def test_bad_config_value_exit_2(self, runner, corpus_dir, tmp_path, section, key, value):
        config = json.loads((corpus_dir / "config.json").read_text())
        options = {**config.get(section, {}), key: value}
        path = write_config(
            corpus_dir, tmp_path / "config.json", checkpoint_dir=str(tmp_path), **{section: options}
        )
        result = runner.invoke(main, ["--config", str(path), "train"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(path) in result.output

    @pytest.mark.parametrize("key", ["validation_months", "test_months"])
    def test_zero_month_window_exit_2(self, runner, corpus_dir, tmp_path, key):
        path = write_config(
            corpus_dir, tmp_path / "config.json", checkpoint_dir=str(tmp_path), **{key: 0}
        )
        result = runner.invoke(main, ["--config", str(path), "train"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"config file {path} is invalid" in result.output
