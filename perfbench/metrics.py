"""End-to-end metrics from the untraced run, per-layer metrics from the traced run."""

from __future__ import annotations

import statistics

import workloads as wl

END_TO_END_UNITS = {
    "setup_s": "s",
    "predict_p50_ms": "ms",
    "predict_p99_ms": "ms",
    "predict_per_s": "1/s",
    "fit_s": "s",
    "save_s": "s",
    "checkpoint_mb": "MB",
    "calibrate_s": "s",
    "evaluate_cases_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_share": "share",
}


def end_to_end(kind: str, train: dict, serve: dict, attempted: int, failed: int,
               timing: str = "nominal") -> dict:
    """Every end-to-end metric; ``timing`` picks nominal-speed or raw timings."""
    fitting = train["timings"][timing]
    serving = serve["timings"][timing]
    latencies = serving["latency_s"]
    values = {
        # serve_*: the checkpoint load every CLI call pays; train_eval: corpus load + split.
        "setup_s": statistics.median(serving["load_s"] if kind == "serve" else fitting["corpus_s"]),
        "predict_p50_ms": 1e3 * statistics.median(latencies),
        "predict_p99_ms": 1e3 * statistics.quantiles(latencies, n=100)[98],
        "predict_per_s": len(latencies) / sum(latencies),
        "fit_s": fitting["fit_s"][0],
        "save_s": statistics.median(fitting["save_s"]),
        "checkpoint_mb": sum(train["checkpoint_bytes"].values()) / 1e6,
        "calibrate_s": statistics.median(serving["calibrate_s"]),
        "evaluate_cases_per_s": serve["evaluated"] / sum(serving["evaluate_s"]),
        # serve_*: the serving process; train_eval: also the training process.
        "peak_rss_mb": (
            serve["peak_rss_mb"] if kind == "serve"
            else max(serve["peak_rss_mb"], train["peak_rss_mb"])
        ),
        "success_share": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(summary: dict, train: dict, serve: dict) -> dict:
    """Per-layer metrics, each named ``<module>.<function>.<quantity>``."""
    loads, calibrations = wl.PIPELINE_LOADS, wl.CALIBRATIONS
    corpus_loads, saves = wl.CORPUS_LOADS, wl.SAVES
    spans = summary["spans"]
    counters = summary["counters"]
    requests = serve["served"]
    cases = serve["evaluated"]

    def calls(phase: str, name: str) -> int:
        return spans[phase].get(name, (0, 0.0))[0]

    def own(phase: str, name: str) -> float:
        return spans[phase].get(name, (0, 0.0))[1]

    def counter(phase: str, key: str) -> float:
        return counters[phase].get(key, 0.0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, tuple[float, str]] = {}

    def per_request(name: str, *quantities: str) -> None:
        if "calls" in quantities:
            out[f"{name}.calls_per_request"] = (calls("serve", name) / requests, "calls/request")
        if "self_ms" in quantities:
            out[f"{name}.self_ms_per_request"] = (
                1e3 * own("serve", name) / requests, "ms/request")

    per_request("alignment.retrieve", "calls", "self_ms")
    retrieves = calls("serve", "alignment.retrieve")
    out["alignment.retrieve.duplicate_share_per_request"] = (
        share(counter("serve", "alignment.retrieve.duplicates"), retrieves), "share")
    out["alignment.retrieve.sentences_selected_per_call"] = (
        share(counter("serve", "alignment.retrieve.sentences"), retrieves), "sentences/call")
    out["alignment.retrieve.covered_keyword_share"] = (
        share(counter("serve", "alignment.retrieve.covered_keywords"),
              counter("serve", "alignment.retrieve.query_keywords")), "share")
    out["alignment.retrieve.self_s_in_fit"] = (own("fit", "alignment.retrieve"), "s")
    per_request("alignment.alignment_score", "calls", "self_ms")

    per_request("case_retrieval.similar_cases", "self_ms")
    per_request("case_retrieval.cosine", "calls", "self_ms")
    per_request("case_retrieval.snippet_for", "calls")
    out["case_retrieval.build_index.self_s"] = (own("fit", "case_retrieval.build_index"), "s")
    out["case_retrieval.CaseIndex.from_dict.self_s"] = (
        own("load", "case_retrieval.CaseIndex.from_dict") / loads, "s")

    per_request("encoder.encode", "calls", "self_ms")
    out["encoder.encode.duplicate_share_per_request"] = (
        share(counter("serve", "encoder.encode.duplicates"), calls("serve", "encoder.encode")),
        "share")
    out["encoder.encode.self_s_in_fit"] = (own("fit", "encoder.encode"), "s")

    per_request("classifier.logits", "calls")
    for level in ("heading", "subheading"):
        out[f"classifier.logits.{level}_calls_per_request"] = (
            counter("serve", f"classifier.logits.{level}") / requests, "calls/request")
    out["classifier.train.self_s"] = (own("fit", "classifier.train"), "s")
    out["classifier.mean_loss_and_gradient.calls"] = (
        calls("fit", "classifier.mean_loss_and_gradient"), "calls")
    out["classifier.mean_loss_and_gradient.self_s"] = (
        own("fit", "classifier.mean_loss_and_gradient"), "s")
    out["classifier.SoftmaxClassifier.load.self_s"] = (
        own("load", "classifier.SoftmaxClassifier.load") / loads, "s")

    per_request("calibration.probabilities", "calls")
    out["calibration.fit_temperature.self_s"] = (own("fit", "calibration.fit_temperature"), "s")
    out["calibration.fit_temperature.self_s_in_calibrate"] = (
        own("calibrate", "calibration.fit_temperature") / calibrations, "s")

    per_request("textproc.tokenize", "calls", "self_ms")
    out["textproc.tokenize.self_s_in_fit"] = (own("fit", "textproc.tokenize"), "s")
    out["textproc.WordVectorTable.load.self_s"] = (
        own("load", "textproc.WordVectorTable.load") / loads, "s")

    for name in ("evaluation.word_matching_baseline", "evaluation.retrieval_precision_recall",
                 "evaluation.evaluate_pipeline"):
        out[f"{name}.self_ms_per_case"] = (1e3 * own("evaluate", name) / cases, "ms/case")

    per_request("pipeline.predict", "self_ms")
    out["pipeline.fit.self_s"] = (own("fit", "pipeline.fit"), "s")
    out["pipeline.save_pipeline.self_s"] = (own("save", "pipeline.save_pipeline") / saves, "s")
    out["pipeline.load_pipeline.self_s"] = (own("load", "pipeline.load_pipeline") / loads, "s")
    out["pipeline.refit_temperatures.self_s"] = (
        own("calibrate", "pipeline.refit_temperatures") / calibrations, "s")
    for file_name, size in train["checkpoint_bytes"].items():
        stem = file_name.rsplit(".", 1)[0]
        out[f"pipeline.checkpoint.{stem}_mb"] = (size / 1e6, "MB")
    out["corpus.load_cases.self_s"] = (own("corpus", "corpus.load_cases") / corpus_loads, "s")

    out["trace.overhead_p50_ms"] = (serve["overhead_p50_ms"], "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
