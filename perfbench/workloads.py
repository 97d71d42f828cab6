"""The benchmark's workloads: corpus shapes and the reason each exists.

Every workload runs the same phases (corpus load, fit, save, load,
calibrate, a closed predict loop, evaluate); the corpus shape decides which
layer dominates. ``serve_*`` workloads are the read path: set-up is the
checkpoint load and the serving process is the one whose memory counts.
``train_eval`` is the write and batch path: set-up is the corpus load and
the training process's memory counts as well.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    headings: int
    subheadings_per_heading: int
    train_per_subheading: int
    validation_per_subheading: int
    test_per_subheading: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "serve" or "train"
    full: Shape
    tiny: Shape
    # Test cases fed to evaluate_pipeline; None means the whole test split.
    evaluate_cases: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve_wide",
            why=(
                "many headings with 10-sentence manuals and small buckets: key-sentence "
                "retrieval dominates predict and similar-case lookup is small"
            ),
            kind="serve",
            full=Shape(40, 9, 8, 3, 3),
            tiny=Shape(6, 4, 4, 2, 2),
            evaluate_cases=240,
        ),
        Workload(
            name="serve_deep",
            why=(
                "few headings with 4-sentence manuals and 200-case buckets: similar-case "
                "lookup dominates predict and retrieval is small; largest case index to load"
            ),
            kind="serve",
            full=Shape(10, 3, 200, 5, 40),
            tiny=Shape(3, 2, 20, 2, 6),
            evaluate_cases=240,
        ),
        Workload(
            name="train_eval",
            why=(
                "write and batch path: fit retrieves evidence for every training case, "
                "then save, refit temperatures and evaluate the whole test split"
            ),
            kind="train",
            full=Shape(30, 6, 15, 4, 6),
            tiny=Shape(5, 3, 6, 2, 2),
            evaluate_cases=None,
        ),
    )
}

# Repeats of the short phases; each reports the median of its repeats.
CORPUS_LOADS = 5
SAVES = 5
PIPELINE_LOADS = 5
CALIBRATIONS = 5

# Speed probes on each side of every timed operation but a request, which
# gets one before it (see speed.py).
PROBES_PER_SIDE = 5
# Test cases per evaluate_pipeline call; speed probes run between calls.
EVALUATE_CHUNK = 40

# Untraced re-run of this many requests in the traced run, to measure the
# tracing overhead and to check that tracing leaves the reports unchanged.
OVERHEAD_REQUESTS = 200

# Accuracy floors on the served requests and on evaluate (top-1).
HS4_TOP1_FLOOR = 0.9
HS6_TOP1_FLOOR = 0.9
