"""Command-line surface: train, predict, evaluate, calibrate, synth.

Exit codes: 0 success; 2 bad user input (arguments, config file, corpus
files, a missing checkpoint); 1 a corrupt checkpoint or an internal error.
All commands are deterministic given the same inputs and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import click

from .alignment import RetrievalConfig
from .classifier import TrainConfig
from .corpus import chronological_split, load_cases, load_manual
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
from .textproc import DEFAULT_STOPWORDS, WordVectorTable, load_stopwords


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


def _load_config(config_path: str | None, seed: int | None, output_format: str | None) -> CliConfig:
    if config_path is None:
        raise click.UsageError("a --config file is required for this command")
    path = Path(config_path)
    if not path.exists():
        raise click.UsageError(f"config file not found: {path}")

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
    if not path.exists():
        raise click.UsageError(f"{label} file not found: {path}")
    return path


def _load_checkpoint(directory: Path) -> PipelineModel:
    """Exit 2 when there is no checkpoint, 1 when it cannot be loaded."""
    if not (directory / "manifest.json").exists():
        raise click.UsageError(f"no pipeline checkpoint at {directory}")
    try:
        return load_pipeline(directory)
    except HsClassifyError as exc:
        raise click.ClickException(str(exc))


def _load_inputs(config: CliConfig):
    try:
        cases = load_cases(_require_file(config.cases, "cases"))
        manuals = load_manual(_require_file(config.manual, "manual"))
        vectors = WordVectorTable.load(_require_file(config.vectors, "vectors"))
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))
    if config.stopwords is not None:
        stopwords = load_stopwords(_require_file(config.stopwords, "stopwords"))
    else:
        stopwords = DEFAULT_STOPWORDS
    return cases, manuals, vectors, stopwords


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
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["seed"] = seed
    ctx.obj["format"] = output_format


def _ctx_config(ctx: click.Context) -> CliConfig:
    return _load_config(ctx.obj["config_path"], ctx.obj["seed"], ctx.obj["format"])


@main.command()
@click.option("--no-evidence", is_flag=True, help="Train the stage-3 head on descriptions alone.")
@click.option(
    "--with-ablation",
    is_flag=True,
    help="Additionally train the opposite stage-3 variant for side-by-side evaluation.",
)
@click.pass_context
def train(ctx: click.Context, no_evidence: bool, with_ablation: bool):
    """Fit the full pipeline and write a checkpoint directory."""
    config = _ctx_config(ctx)
    cases, manuals, vectors, stopwords = _load_inputs(config)
    try:
        split = chronological_split(cases, config.validation_months, config.test_months)
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))

    pipeline_config = config.pipeline
    if no_evidence:
        pipeline_config = replace(pipeline_config, use_evidence=False)
    if with_ablation:
        pipeline_config = replace(pipeline_config, train_ablation=True)

    model = fit(split.train, split.validation, manuals, vectors, stopwords, pipeline_config)
    save_pipeline(model, config.checkpoint_dir)

    report = model.fit_report
    click.echo(f"cases: {len(split.train)} train / {len(split.validation)} validation")
    for stage, stage_report in (("heading", report.heading), ("subheading", report.subheading)):
        best = stage_report.best_epoch
        click.echo(
            f"{stage}: best epoch {best + 1}/{len(stage_report.losses)}"
            f"  val top-1 {stage_report.val_accuracies[best]:.4f}"
            f"  loss {stage_report.losses[best]:.4f}"
        )
    if report.ablation is not None:
        best = report.ablation.best_epoch
        click.echo(f"ablation: best epoch {best + 1}  val top-1 {report.ablation.val_accuracies[best]:.4f}")
    if report.missing_manual_cases:
        click.echo(f"warning: {report.missing_manual_cases} cases lack a gold-heading manual entry")
    click.echo(
        f"temperatures: heading {model.heading_scaler.temperature:.4f}"
        f"  subheading {model.subheading_scaler.temperature:.4f}"
    )
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
        path = _require_file(Path(input_file), "description")
        description = path.read_text(encoding="utf-8")
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
    cases, manuals, _, _ = _load_inputs(config)
    model = _load_checkpoint(config.checkpoint_dir)
    try:
        split = chronological_split(cases, config.validation_months, config.test_months)
        metrics = evaluate_pipeline(model, split.test, manuals)
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
    cases, _, _, _ = _load_inputs(config)
    model = _load_checkpoint(config.checkpoint_dir)
    try:
        split = chronological_split(cases, config.validation_months, config.test_months)
        refit_temperatures(model, list(split.validation))
    except HsClassifyError as exc:
        raise click.UsageError(str(exc))
    save_pipeline(model, config.checkpoint_dir)
    click.echo(
        f"temperatures: heading {model.heading_scaler.temperature:.4f}"
        f"  subheading {model.subheading_scaler.temperature:.4f}"
    )


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
