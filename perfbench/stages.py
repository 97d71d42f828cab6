"""The two processes of one run, driving only hsclassify's public API.

``train_stage`` runs in a child process: it generates the seeded corpus,
loads and splits it, fits, and saves the checkpoint. ``serve_stage`` runs in
the parent afterwards: it loads the checkpoint, refits the temperatures,
serves every test description once in a closed loop with one client, and
evaluates. Both are single-threaded, so nothing queues and only busy time
is recorded.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter, process_time

import hsclassify
from hsclassify.classifier import TrainConfig
from hsclassify.pipeline import refit_temperatures
from hsclassify.synth import SynthConfig, generate, write_corpus

import checks
import workloads as wl
from speed import Speed
from tracing import Tracer, installed

K = 3


class Ops:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, count: int = 1, problems=()) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.errors.extend(problems)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors[:20]}


class Timings:
    """Timings by operation, at nominal machine speed and as measured."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        # Probes from a timer signal would land inside spans of a traced run.
        self.speed = Speed(sample=not tracer.enabled)
        self.nominal: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}

    def add(self, key: str, nominal: float, raw: float) -> None:
        self.nominal.setdefault(key, []).append(nominal)
        self.raw.setdefault(key, []).append(raw)

    def run(self, key: str, span: str, function, *args):
        """Call ``function`` inside span ``span``, timing it under ``key``."""
        gc.collect()

        def call():
            with self.tracer.span(span):
                return function(*args)

        result, nominal, raw = self.speed.measure(call, wl.PROBES_PER_SIDE)
        self.add(key, nominal, raw)
        return result

    def to_dict(self) -> dict:
        return {"nominal": self.nominal, "raw": self.raw}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def pipeline_config(config_path: Path) -> hsclassify.PipelineConfig:
    """The PipelineConfig the CLI builds from the config.json that synth writes."""
    data = json.loads(config_path.read_text(encoding="utf-8"))
    seed = int(data["seed"])
    return hsclassify.PipelineConfig(
        heading_train=TrainConfig(**{**data["heading_train"], "seed": seed}),
        subheading_train=TrainConfig(**{**data["subheading_train"], "seed": seed + 1}),
        retrieval=hsclassify.RetrievalConfig(**data["retrieval"]),
        **data["pipeline"],
    )


def corpus_paths(workdir: Path) -> dict:
    corpus = workdir / "corpus"
    return {name: corpus / f"{name}.{ext}" for name, ext in
            (("cases", "jsonl"), ("manual", "jsonl"), ("vectors", "txt"), ("config", "json"))}


def train_stage(shape: wl.Shape, seed: int, traced: bool, workdir: Path) -> dict:
    synth_config = SynthConfig(
        headings=shape.headings,
        subheadings_per_heading=shape.subheadings_per_heading,
        train_per_subheading=shape.train_per_subheading,
        validation_per_subheading=shape.validation_per_subheading,
        test_per_subheading=shape.test_per_subheading,
        seed=seed,
    )
    write_corpus(generate(synth_config), workdir / "corpus", synth_config)
    paths = corpus_paths(workdir)
    inputs_digest = checks.digest_tree(workdir / "corpus")

    tracer = Tracer(traced)
    timings = Timings(tracer)
    ops = Ops()

    def load_corpus():
        with tracer.span("corpus.load_cases"):
            cases = hsclassify.load_cases(paths["cases"])
        manuals = hsclassify.corpus.load_manual(paths["manual"])
        vectors = hsclassify.WordVectorTable.load(paths["vectors"])
        with tracer.span("corpus.chronological_split"):
            split = hsclassify.chronological_split(cases)
        return manuals, vectors, split

    with installed(tracer, hsclassify):
        with tracer.in_phase("corpus"):
            for _ in range(wl.CORPUS_LOADS):
                manuals, vectors, split = timings.run("corpus_s", "corpus.load", load_corpus)
                ops.record()

        config = pipeline_config(paths["config"])
        with tracer.in_phase("fit"):
            model = timings.run(
                "fit_s", "pipeline.fit", hsclassify.fit, split.train, split.validation, manuals,
                vectors, hsclassify.DEFAULT_STOPWORDS, config,
            )
            ops.record()

        digests = []
        with tracer.in_phase("save"):
            for i in range(wl.SAVES):
                directory = workdir / f"checkpoint-{i}"
                timings.run("save_s", "pipeline.save_pipeline", hsclassify.save_pipeline, model,
                            directory)
                digests.append(checks.digest_tree(directory))
                ops.record(problems=[] if digests[-1] == digests[0] else
                           [f"save {i} wrote different bytes than save 0"])

    checkpoint = workdir / "checkpoint-0"
    if traced:
        tracer.write(workdir / "trace-train.npz")
    return {
        "timings": timings.to_dict(),
        "checkpoint_bytes": {p.name: p.stat().st_size for p in sorted(checkpoint.iterdir())},
        "checkpoint_digest": digests[0],
        "inputs_digest": inputs_digest,
        "split": {"train": len(split.train), "validation": len(split.validation),
                  "test": len(split.test)},
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops.to_dict(),
        "trace": tracer.summary() if traced else None,
    }


def _predict_loop(model, requests, seconds: float, timings: Timings, ops: Ops | None, check):
    """Serve each request once, in order, until done or ``seconds`` of wall time pass.

    Returns (case, structured report) for every request answered. A speed
    probe runs before every request, outside the request's timing.
    """
    tracer = timings.tracer
    speed = timings.speed
    answered = []
    spans = []
    gc.collect()
    speed.probe(wl.PROBES_PER_SIDE)
    deadline = perf_counter() + seconds
    for request_id, case in enumerate(requests):
        if perf_counter() >= deadline:
            break
        speed.probe()
        tracer.set_request(request_id)
        start = perf_counter()
        busy = process_time()
        try:
            report = model.predict(case.description, k=K)
        except Exception as exc:  # a failed request is counted, the loop goes on
            tracer.set_request(-1)
            if ops is not None:
                ops.record(problems=[f"predict {case.id}: {exc!r}"])
            continue
        busy = process_time() - busy
        end = perf_counter()
        tracer.set_request(-1)
        spans.append((start, end, busy))
        data = report.to_dict()
        answered.append((case, data))
        if ops is not None:
            ops.record(problems=check(case, data))
    speed.probe(wl.PROBES_PER_SIDE)
    for start, end, busy in spans:
        timings.add("latency_s", busy * speed.factor(start, end), busy)
    return answered


def _floors(ops: Ops, where: str, hs4: float, hs6: float) -> None:
    for level, value, floor in (("HS4", hs4, wl.HS4_TOP1_FLOOR), ("HS6", hs6, wl.HS6_TOP1_FLOOR)):
        ops.record(problems=[] if value >= floor else
                   [f"{where}: {level} top-1 {value:.4f} below floor {floor}"])


def _evaluate(model, cases, timings: Timings, ops: Ops) -> list[bytes]:
    """evaluate_pipeline over chunks of the cases, so speed probes fall between them.

    Returns each chunk's metrics.json; the floors apply to all chunks together.
    """
    chunks = []
    records = []
    for first in range(0, len(cases), wl.EVALUATE_CHUNK):
        chunk = cases[first: first + wl.EVALUATE_CHUNK]
        try:
            metrics = timings.run("evaluate_s", "evaluation.evaluate_pipeline",
                                  hsclassify.evaluate_pipeline, model, chunk)
        except Exception as exc:  # counted as a failure of every case in the chunk
            ops.record(len(chunk), [f"evaluate_pipeline: {exc!r}"])
            continue
        ops.record(len(chunk))
        chunks.append(checks.canonical(metrics.to_dict()))
        records.extend(metrics.per_case)
    if records:
        _floors(ops, "evaluate", *checks.top1_share(
            [(r.predicted_headings[0], r.predicted_subheadings[0]) for r in records],
            [(r.gold_heading, r.gold_subheading) for r in records]))
    return chunks


def serve_stage(workload: wl.Workload, traced: bool, workdir: Path, seconds: float) -> dict:
    split = hsclassify.chronological_split(hsclassify.load_cases(corpus_paths(workdir)["cases"]))
    requests = list(split.test)
    buckets: dict[str, set[str]] = {}
    for case in split.train:
        buckets.setdefault(case.label.subheading, set()).add(case.id)
    checkpoint = workdir / "checkpoint-0"
    evaluated = requests[: workload.evaluate_cases] if workload.evaluate_cases else requests

    tracer = Tracer(traced)
    timings = Timings(tracer)
    ops = Ops()
    with installed(tracer, hsclassify):
        with tracer.in_phase("load"):
            for _ in range(wl.PIPELINE_LOADS):
                model = timings.run("load_s", "pipeline.load_pipeline", hsclassify.load_pipeline,
                                    checkpoint)
                ops.record()

        temperatures = []
        with tracer.in_phase("calibrate"):
            for _ in range(wl.CALIBRATIONS):
                timings.run("calibrate_s", "pipeline.refit_temperatures", refit_temperatures,
                            model, list(split.validation))
                temperatures.append(
                    (model.heading_scaler.temperature, model.subheading_scaler.temperature)
                )
                ops.record(problems=[] if temperatures[-1] == temperatures[0] else
                           ["refit_temperatures is not repeatable"])

        label_counts = (len(model.label_space.headings), len(model.label_space.subheadings))
        max_sentences = model.config.retrieval.max_sentences
        max_similar = model.config.similar_cases_per_candidate

        def check(case, report):
            return [f"predict {case.id}: {p}" for p in checks.report_violations(
                report, case.description, K, label_counts, max_sentences, max_similar, buckets)]

        with tracer.in_phase("serve"):
            answered = _predict_loop(model, requests, seconds, timings, ops, check)
        if answered:
            _floors(ops, "served requests", *checks.top1_share(
                [(r["heading_candidates"][0]["heading"],
                  r["subheading_candidates"][0]["subheading"]) for _, r in answered],
                [(c.label.heading, c.label.subheading) for c, _ in answered]))

        with tracer.in_phase("evaluate"):
            metrics_chunks = _evaluate(model, evaluated, timings, ops)

    served = len(answered)
    reports = [r for _, r in answered]
    trace = None
    overhead_p50_ms = None
    if traced:
        tracer.write(workdir / "trace-serve.npz")
        trace = tracer.summary()
        # Untraced re-run of the first requests: tracing overhead, and proof
        # that tracing leaves the reports unchanged.
        count = min(wl.OVERHEAD_REQUESTS, served)
        plain = Timings(Tracer(False))
        plain_reports = [r for _, r in _predict_loop(
            model, requests[:count], float("inf"), plain, None, None)]
        overhead_p50_ms = 1e3 * (
            statistics.median(timings.nominal["latency_s"][:count])
            - statistics.median(plain.nominal["latency_s"])
        )
        ops.record(problems=[] if plain_reports == reports[:count] else
                   ["traced reports differ from untraced reports"])
    return {
        "timings": timings.to_dict(),
        "served": served,
        "requests": len(requests),
        "evaluated": len(evaluated),
        "reports_digest": checks.digest_reports(reports),
        "metrics_digest": checks.digest_reports(metrics_chunks),
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops.to_dict(),
        "trace": trace,
        "overhead_p50_ms": overhead_p50_ms,
    }
