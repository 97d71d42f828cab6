"""Correctness gate on the program's outputs, and digests of those outputs."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def canonical(data) -> bytes:
    """JSON with sorted keys and full-precision floats."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def report_violations(
    report: dict,
    description: str,
    k: int,
    label_counts: tuple[int, int],
    max_sentences: int,
    max_similar: int,
    buckets: dict[str, set[str]],
) -> list[str]:
    """Invariants of one structured ``predict`` report; empty when it passes."""
    problems = []
    if report["description"] != description:
        problems.append("report describes another input")
    for field, count in zip(("heading_candidates", "subheading_candidates"), label_counts):
        candidates = report[field]
        if len(candidates) != min(k, count):
            problems.append(f"{field}: {len(candidates)} candidates, expected {min(k, count)}")
        scores = [c["score"] for c in candidates]
        if any(not 0.0 <= s <= 1.0 for s in scores):
            problems.append(f"{field}: score outside [0, 1]")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"{field}: scores not descending")
    for candidate in report["heading_candidates"]:
        if len(candidate["key_sentences"]) > max_sentences:
            problems.append(f"heading {candidate['heading']}: too many key sentences")
    for candidate in report["subheading_candidates"]:
        similar = candidate["similar_cases"]
        if len(similar) > max_similar:
            problems.append(f"subheading {candidate['subheading']}: too many similar cases")
        bucket = buckets.get(candidate["subheading"], set())
        if any(s["case_id"] not in bucket for s in similar):
            problems.append(f"subheading {candidate['subheading']}: similar case from another bucket")
    return problems


def top1_share(predicted: list[tuple[str, str]], gold: list[tuple[str, str]]):
    """HS4 and HS6 top-1 accuracy of (heading, subheading) predictions."""
    hs4 = sum(p[0] == g[0] for p, g in zip(predicted, gold)) / len(gold)
    hs6 = sum(p[1] == g[1] for p, g in zip(predicted, gold)) / len(gold)
    return hs4, hs6


def digest_reports(reports: list) -> str:
    """sha256 over the canonical JSON of each report (or the bytes given), in order."""
    sha = hashlib.sha256()
    for report in reports:
        sha.update(report if isinstance(report, bytes) else canonical(report))
        sha.update(b"\n")
    return sha.hexdigest()


def digest_tree(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    sha = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(directory)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()
