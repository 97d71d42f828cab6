"""Seeded synthetic corpus generator for end-to-end exercises.

Construction
------------
Every heading owns a small set of indicative pseudo-words and every
subheading a further set of its own. Each indicative word comes in two
spellings backed by the *same* word vector: a description-side form used in
case descriptions and a manual-side synonym used in the heading's manual
entry. Descriptions therefore share almost no literal tokens with the
manual (defeating plain word matching) while vector alignment between the
two spellings is exact, so key-sentence retrieval and the pooled encoder
see a clean signal. A small fraction of descriptions also quote one
manual-side synonym verbatim, giving literal matching a weak foothold.

Each heading's manual entry is one overview sentence carrying all the
heading's manual-side words followed by one sentence per subheading; those
two sentences are attached to every case as its gold evidence. Filler words
(shared across classes) and stopwords pad the descriptions. Case dates land
in fixed calendar windows - training January-June, validation July-
September, test October-December - so the chronological split reproduces
the per-subheading train/validation/test counts exactly.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DecisionCase, ManualEntry, _case_from_record
from .textproc import WordVectorTable

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

HEADING_WORDS = 5
SUBHEADING_WORDS = 4
FILLER_WORDS = 12
QUOTE_MANUAL_PROBABILITY = 0.15
REVOKED_CASES = 6
YEAR = 2024


@dataclass(frozen=True)
class SynthConfig:
    headings: int = 20
    subheadings_per_heading: int = 3
    train_per_subheading: int = 50
    validation_per_subheading: int = 5
    test_per_subheading: int = 5
    vector_dimension: int = 50
    seed: int = 7

    def __post_init__(self):
        if not 1 <= self.headings <= 99:
            raise ValueError("headings must be in 1..99")
        if not 1 <= self.subheadings_per_heading <= 9:
            raise ValueError("subheadings_per_heading must be in 1..9")
        if min(self.train_per_subheading, self.validation_per_subheading, self.test_per_subheading) < 1:
            raise ValueError("per-subheading case counts must be >= 1")
        if self.vector_dimension < 1:
            raise ValueError("vector_dimension must be >= 1")


@dataclass
class SynthCorpus:
    cases: list[DecisionCase]
    manual: dict[str, ManualEntry]
    vectors: WordVectorTable
    raw_case_records: list[dict]


class _WordFactory:
    """Deterministic unique pseudo-word source."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int = 3) -> str:
        while True:
            parts = []
            for _ in range(syllables):
                parts.append(
                    _CONSONANTS[self.rng.integers(len(_CONSONANTS))]
                    + _VOWELS[self.rng.integers(len(_VOWELS))]
                )
            candidate = "".join(parts)
            if candidate not in self.used:
                self.used.add(candidate)
                return candidate


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def generate(config: SynthConfig = SynthConfig()) -> SynthCorpus:
    """Build the synthetic corpus for the given seed; fully deterministic."""
    rng = np.random.default_rng(config.seed)
    factory = _WordFactory(rng)
    dim = config.vector_dimension

    vectors: dict[str, np.ndarray] = {}

    def synonym_pair() -> tuple[str, str]:
        description_form = factory.word()
        manual_form = factory.word()
        vector = _unit_vector(rng, dim)
        vectors[description_form] = vector
        vectors[manual_form] = vector.copy()
        return description_form, manual_form

    headings = [f"85{i + 1:02d}" for i in range(config.headings)]
    subheading_suffixes = [f"{(j + 1) * 10}" for j in range(config.subheadings_per_heading)]

    heading_vocab: dict[str, list[tuple[str, str]]] = {
        h: [synonym_pair() for _ in range(HEADING_WORDS)] for h in headings
    }
    subheading_vocab: dict[str, list[tuple[str, str]]] = {}
    for heading in headings:
        for suffix in subheading_suffixes:
            subheading_vocab[heading + suffix] = [synonym_pair() for _ in range(SUBHEADING_WORDS)]

    filler = []
    for _ in range(FILLER_WORDS):
        word = factory.word()
        vectors[word] = _unit_vector(rng, dim)
        filler.append(word)

    # Manual: overview sentence plus one sentence per subheading.
    manual: dict[str, ManualEntry] = {}
    evidence_sentences: dict[str, tuple[str, str]] = {}
    for heading in headings:
        heading_manual_words = [m for _, m in heading_vocab[heading]]
        overview = (
            f"This heading covers {heading_manual_words[0]} and {heading_manual_words[1]} "
            f"{heading_manual_words[2]} devices with {heading_manual_words[3]} or "
            f"{heading_manual_words[4]} assemblies."
        )
        sentences = [overview]
        for suffix in subheading_suffixes:
            subheading = heading + suffix
            sub_manual_words = [m for _, m in subheading_vocab[subheading]]
            sentence = (
                f"Subheading {subheading[:4]}.{subheading[4:]} includes {sub_manual_words[0]} "
                f"{sub_manual_words[1]} articles of {sub_manual_words[2]} with "
                f"{sub_manual_words[3]} and {heading_manual_words[0]} "
                f"{heading_manual_words[1]} parts."
            )
            sentences.append(sentence)
            evidence_sentences[subheading] = (overview, sentence)
        manual[heading] = ManualEntry(heading=heading, sentences=tuple(sentences))

    def make_description(heading: str, subheading: str) -> str:
        words: list[str] = []
        h_words = [d for d, _ in heading_vocab[heading]]
        s_words = [d for d, _ in subheading_vocab[subheading]]
        words += list(rng.choice(h_words, size=rng.integers(3, 5), replace=False))
        words += list(rng.choice(s_words, size=rng.integers(2, 4), replace=False))
        words += list(rng.choice(filler, size=rng.integers(2, 5), replace=False))
        words += ["with", "for", "the"][: rng.integers(1, 4)]
        if rng.random() < QUOTE_MANUAL_PROBABILITY:
            words.append(heading_vocab[heading][int(rng.integers(HEADING_WORDS))][1])
        order = rng.permutation(len(words))
        shuffled = [words[i] for i in order]
        return (" ".join(shuffled)).capitalize()

    splits = (
        ("train", config.train_per_subheading, (1, 2, 3, 4, 5, 6)),
        ("validation", config.validation_per_subheading, (7, 8, 9)),
        ("test", config.test_per_subheading, (10, 11, 12)),
    )

    records: list[dict] = []
    counter = 0
    for heading in headings:
        for suffix in subheading_suffixes:
            subheading = heading + suffix
            for split_name, count, months in splits:
                for i in range(count):
                    counter += 1
                    month = months[i % len(months)]
                    day = 1 + (i * 3) % 28
                    record = {
                        "id": f"case-{counter:05d}",
                        "description": make_description(heading, subheading),
                        "hs_code": f"{subheading[:4]}.{subheading[4:]}",
                        "date": f"{YEAR:04d}-{month:02d}-{day:02d}",
                        # The loader ignores "origin"; it stays so seeded corpora keep their bytes.
                        "origin": ("international" if counter % 2 else "domestic"),
                    }
                    if split_name == "test":
                        record["gold_evidence"] = list(evidence_sentences[subheading])
                    records.append(record)

    for i in range(REVOKED_CASES):
        heading = headings[i % len(headings)]
        subheading = heading + subheading_suffixes[i % len(subheading_suffixes)]
        records.append(
            {
                "id": f"case-revoked-{i + 1:03d}",
                "description": make_description(heading, subheading),
                "hs_code": f"{subheading[:4]}.{subheading[4:]}",
                "date": f"{YEAR:04d}-03-{1 + i % 28:02d}",
                "origin": "domestic",
                "revoked": True,
            }
        )

    codes, dates = {}, {}
    return SynthCorpus(
        cases=[
            _case_from_record(record, line, dt.date.max, codes, dates)
            for line, record in enumerate(records, start=1)
            if not record.get("revoked")
        ],
        manual=manual,
        vectors=WordVectorTable(vectors),
        raw_case_records=records,
    )


def write_corpus(corpus: SynthCorpus, directory: str | Path, config: SynthConfig) -> dict[str, Path]:
    """Write cases.jsonl, manual.jsonl, vectors.txt and a ready-to-run config.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    cases_path = directory / "cases.jsonl"
    with open(cases_path, "w", encoding="utf-8") as handle:
        for record in corpus.raw_case_records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    manual_path = directory / "manual.jsonl"
    with open(manual_path, "w", encoding="utf-8") as handle:
        for heading in sorted(corpus.manual):
            record = {"heading": heading, "sentences": list(corpus.manual[heading].sentences)}
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    vectors_path = directory / "vectors.txt"
    tokens = corpus.vectors.tokens()
    with open(vectors_path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(tokens)} {corpus.vectors.dimension}\n")
        for token in sorted(tokens):
            values = " ".join(f"{x:.6f}" for x in corpus.vectors.get(token))
            handle.write(f"{token} {values}\n")

    config_path = directory / "config.json"
    cli_config = {
        "cases": "cases.jsonl",
        "manual": "manual.jsonl",
        "vectors": "vectors.txt",
        "stopwords": None,
        "checkpoint_dir": "checkpoint",
        "seed": config.seed,
        "validation_months": 3,
        "test_months": 3,
        "heading_train": {"epochs": 50, "learning_rate": 0.5, "batch_size": 32},
        "subheading_train": {"epochs": 50, "learning_rate": 0.5, "batch_size": 32},
        "retrieval": {"max_sentences": 7, "coverage_threshold": 0.95},
        "pipeline": {},
    }
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(cli_config, handle, indent=2, sort_keys=True)
        handle.write("\n")

    return {
        "cases": cases_path,
        "manual": manual_path,
        "vectors": vectors_path,
        "config": config_path,
    }
