"""Command-line surface: train, predict, evaluate, calibrate, synth.

Exit codes: 0 success; 2 bad user input (arguments, config file, corpus
files, a missing checkpoint); 1 a corrupt checkpoint or an internal error.
All commands are deterministic given the same inputs and seed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import click

from .alignment import RetrievalConfig
from .classifier import TrainConfig
from .corpus import DatasetSplit, chronological_split, load_cases, load_manual
from .errors import HsClassifyError
from .evaluation import evaluate_pipeline
from .pipeline import (
    PipelineConfig,
    PipelineModel,
    fit,
    load_pipeline,
    refit_temperatures,
    save_pipeline,
)
from .synth import SynthConfig, generate, write_corpus
from .textproc import DEFAULT_STOPWORDS, WordVectorTable, load_stopwords, open_text


@dataclass
class CliConfig:
    cases: Path
    manual: Path
    vectors: Path
    stopwords: Path | None
    checkpoint_dir: Path
    seed: int
    output_format: str
    validation_months: int
    test_months: int
    pipeline: PipelineConfig

    def __post_init__(self):
        if self.validation_months < 1 or self.test_months < 1:
            raise ValueError("validation_months and test_months must be >= 1")


def _load_config(config_path: str | None, seed: int | None, output_format: str | None) -> CliConfig:
    if config_path is None:
        raise click.UsageError("a --config file is required for this command")
    path = _require_file(Path(config_path), "config")

    def resolve(key: str, required: bool = True) -> Path | None:
        value = data.get(key)
        if value is None:
            if required:
                raise click.UsageError(f"config file {path} is missing {key!r}")
            return None
        return path.parent / value

    def train_config(key: str, seed: int) -> TrainConfig:
        return TrainConfig(**{**data.get(key, {}), "seed": seed})

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise TypeError("its top level is not a JSON object")
        effective_seed = seed if seed is not None else int(data.get("seed", 0))
        return CliConfig(
            cases=resolve("cases"),
            manual=resolve("manual"),
            vectors=resolve("vectors"),
            stopwords=resolve("stopwords", required=False),
            checkpoint_dir=resolve("checkpoint_dir"),
            seed=effective_seed,
            output_format=output_format or data.get("format", "text"),
            validation_months=int(data.get("validation_months", 3)),
            test_months=int(data.get("test_months", 3)),
            pipeline=PipelineConfig(
                heading_train=train_config("heading_train", effective_seed),
                subheading_train=train_config("subheading_train", effective_seed + 1),
                retrieval=RetrievalConfig(**data.get("retrieval", {})),
                **data.get("pipeline", {}),
            ),
        )
    except (TypeError, ValueError) as exc:  # ValueError includes invalid JSON
        raise click.UsageError(f"config file {path} is invalid: {exc}")


def _require_file(path: Path, label: str) -> Path:
    """``path``, if it names a regular file; a usage error otherwise."""
    if not path.is_file():
        raise click.UsageError(f"{label} file not found or not a regular file: {path}")
    return path


def _load_checkpoint(directory: Path) -> PipelineModel:
    """Exit 2 when there is no checkpoint, 1 when it cannot be loaded."""
    if not (directory / "manifest.json").exists():
        raise click.UsageError(f"no pipeline checkpoint at {directory}")
    try:
        return load_pipeline(directory)
    except HsClassifyError as exc:
        raise click.ClickException(str(exc))


def _load_split(config: CliConfig) -> DatasetSplit:
    """The chronological split of the cases file: all that ``evaluate`` and ``calibrate`` read."""
    try:
        cases = load_cases(_require_file(config.cases, "cases"))
        return chronological_split(cases, config.validation_months, config.test_months)
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))


def _load_training_inputs(config: CliConfig):
    """The manual, word vectors and stopwords that ``train`` reads besides the cases."""
    try:
        manuals = load_manual(_require_file(config.manual, "manual"))
        vectors = WordVectorTable.load(_require_file(config.vectors, "vectors"))
        stopwords = DEFAULT_STOPWORDS
        if config.stopwords is not None:
            stopwords = load_stopwords(_require_file(config.stopwords, "stopwords"))
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))
    return manuals, vectors, stopwords


def _echo_temperatures(model: PipelineModel) -> None:
    """One line with each stage's temperature; the ablation head's when there is one."""
    line = (
        f"temperatures: heading {model.heading_scaler.temperature:.4f}"
        f"  subheading {model.subheading_scaler.temperature:.4f}"
    )
    if model.ablation_scaler is not None:
        line += f"  ablation {model.ablation_scaler.temperature:.4f}"
    click.echo(line)


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="Path to a JSON config file.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "structured"]),
    default=None,
    help="Output rendering for predict/evaluate.",
)
@click.pass_context
def main(ctx: click.Context, config_path: str | None, seed: int | None, output_format: str | None):
    """Hierarchical HS-code classification with evidence retrieval."""
    # Every command prints a library warning as one "warning: <message>" line.
    ctx.with_resource(warnings.catch_warnings())
    warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["seed"] = seed
    ctx.obj["format"] = output_format


def _ctx_config(ctx: click.Context) -> CliConfig:
    return _load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["format"])


@main.command()
@click.option(
    "--with-ablation",
    is_flag=True,
    help="Also train a description-only stage-3 head for side-by-side evaluation.",
)
@click.pass_context
def train(ctx: click.Context, with_ablation: bool):
    """Fit the full pipeline and write a checkpoint directory."""
    config = _ctx_config(ctx)
    target = config.checkpoint_dir
    existing = next(p for p in (target, *target.parents) if p.exists())
    if not existing.is_dir():  # refused before fitting, not after
        raise click.UsageError(f"checkpoint_dir is not a directory: {existing}")
    split = _load_split(config)
    manuals, vectors, stopwords = _load_training_inputs(config)

    if with_ablation:
        config.pipeline = replace(config.pipeline, train_ablation=True)
    model = fit(split.train, split.validation, manuals, vectors, stopwords, config.pipeline)
    save_pipeline(model, config.checkpoint_dir)

    report = model.fit_report
    click.echo(f"cases: {len(split.train)} train / {len(split.validation)} validation")
    caps = {"heading": config.pipeline.heading_train.epochs}
    caps["subheading"] = caps["ablation"] = config.pipeline.subheading_train.epochs
    for stage, cap in caps.items():
        stage_report = getattr(report, stage)
        if stage_report is None:  # no ablation head
            continue
        best, run = stage_report.best_epoch, len(stage_report.losses)
        stopped = (
            f"  (stopped after {run} of {cap} epochs: validation top-1 reached 1.0)"
            if run < cap
            else ""
        )
        click.echo(
            f"{stage}: best epoch {best + 1}/{run}"
            f"  val top-1 {stage_report.val_accuracies[best]:.4f}"
            f"  epoch-mean train loss {stage_report.losses[best]:.4f}{stopped}"
        )
    _echo_temperatures(model)
    click.echo(f"checkpoint written to {config.checkpoint_dir}")


@main.command()
@click.argument("description", required=False)
@click.option("--input-file", type=str, default=None, help="Read the description from a file.")
@click.option("--top-k", type=int, default=3, show_default=True, help="Candidates per stage.")
@click.pass_context
def predict(ctx: click.Context, description: str | None, input_file: str | None, top_k: int):
    """Render a candidate report for one item description."""
    config = _ctx_config(ctx)
    if input_file is not None:
        try:
            with open_text(_require_file(Path(input_file), "description")) as handle:
                description = handle.read()
        except HsClassifyError as exc:
            raise click.UsageError(str(exc))
    if description is None or not description.strip():
        raise click.UsageError("provide a non-empty item description (argument or --input-file)")
    model = _load_checkpoint(config.checkpoint_dir)
    try:
        report = model.predict(description.strip(), k=top_k)
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))
    if config.output_format == "structured":
        click.echo(json.dumps(report.to_dict(), sort_keys=True))
    else:
        click.echo(report.render_text(), nl=False)


@main.command()
@click.option(
    "--output-dir",
    type=str,
    default=None,
    help="Directory for metrics files (defaults to the checkpoint directory).",
)
@click.pass_context
def evaluate(ctx: click.Context, output_dir: str | None):
    """Evaluate the checkpoint on the chronological test split."""
    config = _ctx_config(ctx)
    split = _load_split(config)
    model = _load_checkpoint(config.checkpoint_dir)
    try:
        metrics = evaluate_pipeline(model, split.test)
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))

    target = Path(output_dir) if output_dir is not None else config.checkpoint_dir
    target.mkdir(parents=True, exist_ok=True)
    with open(target / "metrics.json", "w", encoding="utf-8") as handle:
        json.dump(metrics.to_dict(), handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    table = metrics.render_table()
    (target / "metrics.txt").write_text(table, encoding="utf-8")

    if config.output_format == "structured":
        click.echo(json.dumps(metrics.to_dict(), sort_keys=True))
    else:
        click.echo(table, nl=False)
    click.echo(f"metrics written to {target / 'metrics.json'}")


@main.command()
@click.pass_context
def calibrate(ctx: click.Context):
    """Refit the per-stage temperatures on the validation split."""
    config = _ctx_config(ctx)
    split = _load_split(config)
    model = _load_checkpoint(config.checkpoint_dir)
    try:
        refit_temperatures(model, list(split.validation))
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))
    save_pipeline(model, config.checkpoint_dir)
    _echo_temperatures(model)


@main.command()
@click.option("--out-dir", type=str, required=True, help="Directory for the generated corpus.")
@click.option("--headings", type=int, default=20, show_default=True)
@click.option("--subheadings-per-heading", type=int, default=3, show_default=True)
@click.option("--train-per-subheading", type=int, default=50, show_default=True)
@click.option("--validation-per-subheading", type=int, default=5, show_default=True)
@click.option("--test-per-subheading", type=int, default=5, show_default=True)
@click.option("--dimension", type=int, default=50, show_default=True)
@click.pass_context
def synth(
    ctx: click.Context,
    out_dir: str,
    headings: int,
    subheadings_per_heading: int,
    train_per_subheading: int,
    validation_per_subheading: int,
    test_per_subheading: int,
    dimension: int,
):
    """Generate a seeded synthetic corpus plus a ready-to-run config file."""
    seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 7
    try:
        config = SynthConfig(
            headings=headings,
            subheadings_per_heading=subheadings_per_heading,
            train_per_subheading=train_per_subheading,
            validation_per_subheading=validation_per_subheading,
            test_per_subheading=test_per_subheading,
            vector_dimension=dimension,
            seed=seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    corpus = generate(config)
    paths = write_corpus(corpus, out_dir, config)
    click.echo(f"cases:   {paths['cases']}  ({len(corpus.raw_case_records)} records)")
    click.echo(f"manual:  {paths['manual']}  ({len(corpus.manual)} headings)")
    click.echo(f"vectors: {paths['vectors']}  (dim {corpus.vectors.dimension})")
    click.echo(f"config:  {paths['config']}")


if __name__ == "__main__":
    main()
