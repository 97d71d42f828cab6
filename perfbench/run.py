"""hsclassify benchmark: one workload, one seed, one result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_wide --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory. A child
process generates the seeded corpus, loads it, fits and saves the
checkpoint; this process then loads the checkpoint, refits temperatures,
serves every test description once and evaluates. Scratch files go under
``.perfbench/`` and are removed at the end, except the span files of the
latest traced run of each workload.

Standard output ends with three JSON lines: the run context, the output
digests, and the result ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from a run with spans around every layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One thread per process: the loop is single-threaded by design, and a BLAS
# thread pool would compete with it for the two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

CHILD_TIMEOUT_S = 150
BENCH_DIR = ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="upper bound on the closed predict loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--stage", choices=("all", "train"), default="all",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 if it is missing."""
    package = root / "src" / "hsclassify" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no hsclassify source at {package.parent}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(root / "src"))
    import hsclassify

    if Path(hsclassify.__file__).resolve() != package.resolve():
        print(f"perfbench: imported hsclassify from {hsclassify.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (root / "src").rglob("*.py"))


def run_child(args, workdir: Path) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--stage", "train",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shape", args.shape, "--workdir", str(workdir)]
    completed = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        print(f"perfbench: training stage exited with {completed.returncode}", file=sys.stderr)
        sys.exit(1)
    return json.loads((workdir / "train.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)

    import numpy
    import stages
    import workloads as wl
    from metrics import end_to_end, per_layer
    from tracing import merge_summaries

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    shape = workload.full if args.shape == "full" else workload.tiny
    traced = bool(args.trace)

    if args.stage == "train":
        workdir = Path(args.workdir)
        result = stages.train_stage(shape, args.seed, traced, workdir)
        (workdir / "train.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    bench_dir = root / BENCH_DIR
    workdir = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        train = run_child(args, workdir)
        serve = stages.serve_stage(workload, traced, workdir, args.seconds)
        if traced:
            traces = bench_dir / "traces"
            traces.mkdir(exist_ok=True)
            for stage in ("train", "serve"):
                shutil.move(workdir / f"trace-{stage}.npz",
                            traces / f"{args.workload}-{stage}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = train["ops"]["attempted"] + serve["ops"]["attempted"]
    failed = train["ops"]["failed"] + serve["ops"]["failed"]
    for error in train["ops"]["errors"] + serve["ops"]["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    if traced:
        summary = merge_summaries(train["trace"], serve["trace"])
        metrics = per_layer(summary, train, serve)
    else:
        metrics = end_to_end(workload.kind, train, serve, attempted, failed)

    digests = {
        "inputs": train["inputs_digest"],
        "reports": serve["reports_digest"],
        "metrics_json": serve["metrics_digest"],
        "checkpoint": train["checkpoint_digest"],
    }
    digests["outputs"] = hashlib.sha256(
        "".join(digests[k] for k in ("reports", "metrics_json", "checkpoint")).encode()
    ).hexdigest()
    context = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "shape": {"name": args.shape, **vars(shape)},
        "cases": train["split"],
        "requests": {"served": serve["served"], "distinct": serve["requests"],
                     "evaluated": serve["evaluated"]},
        "src_lines": src_lines(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "trace": args.trace,
        "raw_timings": {name: entry["value"] for name, entry in
                        end_to_end(workload.kind, train, serve, attempted, failed, "raw").items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"digest": digests}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
