"""Shared fixtures: toy vector tables, tiny corpora, file builders."""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import strategies as st

from hsclassify.alignment import KeySentenceRetriever, RetrievalResult
from hsclassify.corpus import DecisionCase, ManualEntry, parse_hs_code
from hsclassify.encoder import PooledEncoder
from hsclassify.textproc import VECTOR_RANGE, WEIGHT_RANGE, WordVectorTable, compute_idf, tokenize


def _in_range(low: float, high: float) -> st.SearchStrategy[float]:
    """0, an edge of [low, high], or any float between them."""
    return st.one_of(st.sampled_from([0.0, low, high]), st.floats(low, high))


# Any accepted word-vector component and idf weight, edges included.
vector_component = st.tuples(_in_range(*VECTOR_RANGE), st.booleans()).map(
    lambda pair: -pair[0] if pair[1] else pair[0]
)
idf_weight = _in_range(*WEIGHT_RANGE)


@pytest.fixture
def toy_vectors() -> WordVectorTable:
    """3-dim table with orthogonal axes and a synonym pair (solar ~ sunlight)."""
    return WordVectorTable(
        {
            "solar": [1.0, 0.0, 0.0],
            "sunlight": [1.0, 0.0, 0.0],
            "panel": [0.0, 1.0, 0.0],
            "cell": [0.0, 0.0, 1.0],
            "glass": [1.0, 1.0, 0.0],
            "diode": [0.0, 1.0, 1.0],
        }
    )


@pytest.fixture
def toy_encoder(toy_vectors) -> PooledEncoder:
    """The toy table with idf weights from four small documents."""
    docs = [
        ["solar", "panel", "cell"],
        ["solar", "glass"],
        ["panel", "diode"],
        ["solar", "panel"],
    ]
    return PooledEncoder(toy_vectors, compute_idf(docs, toy_vectors.index))


def idf_encoder(
    vectors: WordVectorTable, idf: Mapping[str, float] = {}, documents: int = 4
) -> PooledEncoder:
    """The encoder whose token ``t`` has the weight ``idf[t]``, ln(documents) if absent.

    That is what ``compute_idf`` gives a token in no document.
    """
    default = math.log(documents)
    return PooledEncoder(vectors, [idf.get(token, default) for token in vectors.index])


def make_case(
    case_id: str,
    description: str = "Photovoltaic cell panel",
    code: str = "854140",
    date: str = "2024-01-15",
    gold_evidence: tuple[str, ...] | None = None,
) -> DecisionCase:
    return DecisionCase(
        id=case_id,
        description=description,
        label=parse_hs_code(code),
        decision_date=dt.date.fromisoformat(date),
        gold_evidence=gold_evidence,
    )


def make_manual_entry(heading: str, sentences: list[str]) -> ManualEntry:
    return ManualEntry(heading=heading, sentences=tuple(sentences))


def encode_with_evidence(encoder: PooledEncoder, description: str, sentences) -> np.ndarray:
    """A description pooled with its evidence sentences, in order, from their parts."""
    parts = encoder.parts([tokenize(text) for text in [description, *sentences]])
    return encoder.pool_many([parts])[0]


def encode(encoder: PooledEncoder, text: str) -> np.ndarray:
    """One text pooled alone from its part."""
    return encoder.pool_many([encoder.parts([tokenize(text)])])[0]


def retrieve(
    retriever: KeySentenceRetriever, description: str, entry: ManualEntry
) -> RetrievalResult:
    """The key sentences of one description, retrieved alone from ``entry``."""
    return retriever.retrieve_many(retriever.queries([tokenize(description)]), entry)[0]


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def rehash_checkpoint(checkpoint: Path) -> None:
    """Re-sign an edited checkpoint: each file's sha256, then the manifest's own."""
    path = checkpoint / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["sha256"]
    manifest["files"] = {
        name: hashlib.sha256((checkpoint / name).read_bytes()).hexdigest()
        for name in manifest["files"]
    }
    manifest["sha256"] = hashlib.sha256(_canonical(manifest)).hexdigest()
    path.write_bytes(_canonical(manifest) + b"\n")


def drop_first_case_id(arrays: dict) -> dict:
    """The ``case_index.npz`` arrays with the first of its newline-joined case ids dropped."""
    ids = arrays["ids"].tobytes()
    return {**arrays, "ids": np.frombuffer(ids[ids.index(b"\n") + 1 :], dtype=np.uint8)}


def edit_checkpoint_arrays(checkpoint: Path, name: str, edit) -> None:
    """Replace the arrays of ``name`` by ``edit(arrays)`` and re-sign the checkpoint."""
    path = checkpoint / name
    with np.load(io.BytesIO(path.read_bytes()), allow_pickle=False) as loaded:
        arrays = dict(loaded)
    buffer = io.BytesIO()
    np.savez(buffer, **edit(arrays))
    path.write_bytes(buffer.getvalue())
    rehash_checkpoint(checkpoint)
