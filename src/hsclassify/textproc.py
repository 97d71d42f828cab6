"""Tokenization, stopwords, static word vectors, IDF statistics, similarity.

These primitives are shared by the encoder, the key-sentence retriever, and
the word-matching baseline. All tables are immutable after construction.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, ParseError

# Word tokens are runs of unicode word characters (underscore excluded),
# optionally joined by interior dots so measurements like "22.1v" survive.
_TOKEN_RE = re.compile(r"[^\W_]+(?:\.[^\W_]+)*")

# Small built-in English stopword list; replaceable via load_stopwords.
DEFAULT_STOPWORDS = frozenset(
    """a about above after again against all am an and any are as at be because
    been before being below between both but by can did do does doing down
    during each few for from further had has have having he her here hers him
    his how i if in into is it its itself just me more most my no nor not now
    of off on once only or other our ours out over own same she should so some
    such than that the their theirs them then there these they this those
    through to too under until up very was we were what when where which while
    who whom why will with you your yours""".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with punctuation stripped and digits kept."""
    return _TOKEN_RE.findall(text.lower())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file, one token per line; blank lines ignored."""
    with open(path, encoding="utf-8") as handle:
        return frozenset(w.strip().lower() for w in handle if w.strip())


class WordVectorTable:
    """Fixed-dimension static word vectors; unknown tokens map to zeros."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise EmptyInput("word vector table is empty")
        dims = {len(v) for v in vectors.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"inconsistent vector lengths: {sorted(dims)}")
        self.dimension = dims.pop()
        self._vectors = {t: np.asarray(v, dtype=float) for t, v in vectors.items()}
        self._zero = np.zeros(self.dimension)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, token: str) -> np.ndarray:
        """Vector for ``token``, or the zero vector when out of vocabulary."""
        return self._vectors.get(token, self._zero)

    def tokens(self) -> list[str]:
        return list(self._vectors)

    @classmethod
    def load(cls, path: str | Path) -> "WordVectorTable":
        """Parse a text vector file: ``token v1 ... vd`` per line.

        An optional first line ``count dim`` (two integers) is accepted and
        skipped, matching common pretrained-vector releases.
        """
        vectors: dict[str, np.ndarray] = {}
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                parts = line.rstrip("\n").split(" ")
                if not line.strip():
                    continue
                if line_no == 1 and len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                        continue  # header line
                    except ValueError:
                        pass
                token = parts[0]
                try:
                    values = np.array([float(x) for x in parts[1:] if x != ""])
                except ValueError as exc:
                    raise ParseError(f"bad vector value: {exc}", line_no) from exc
                if values.size == 0:
                    raise ParseError(f"token {token!r} has no vector values", line_no)
                if not np.isfinite(values).all():
                    raise ParseError(f"token {token!r} has a non-finite vector value", line_no)
                vectors[token] = values
        return cls(vectors)


class IdfTable:
    """Inverse document frequencies: idf(t) = ln(N / df(t)).

    Tokens absent from every document fall back to df = 1, i.e. ln(N).
    """

    def __init__(self, document_count: int, values: dict[str, float]):
        if document_count < 1:
            raise EmptyInput("document count must be positive")
        if not np.isfinite(np.fromiter(values.values(), float, len(values))).all():
            raise ValueError("idf values must be finite")
        self.document_count = document_count
        self._values = dict(values)
        self._default = math.log(document_count)

    def value(self, token: str) -> float:
        return self._values.get(token, self._default)

    def items(self):
        return self._values.items()


def compute_idf(documents: list[list[str]]) -> IdfTable:
    """Build an IdfTable from tokenized documents."""
    if not documents:
        raise EmptyInput("need at least one document for idf statistics")
    n = len(documents)
    df: dict[str, int] = {}
    for doc in documents:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    values = {t: math.log(n / count) for t, count in df.items()}
    return IdfTable(document_count=n, values=values)


def cosine(u, v, u_norm: float | None = None) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm.

    ``u_norm`` is ``np.linalg.norm(u)``, for a caller that compares one ``u``
    with many vectors and computes it once.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector lengths differ: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u) if u_norm is None else u_norm
    nv = np.linalg.norm(v)
    if nu < 1e-150 or nv < 1e-150:
        if nu == 0.0 or nv == 0.0:
            return 0.0
        # Squared components this small are subnormal and skew the norm;
        # the cosine is scale-free, so rescale and recompute.
        return cosine(u / np.abs(u).max(), v / np.abs(v).max())
    return float(np.dot(u, v) / (nu * nv))


def content_keywords(
    tokens: list[str], stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> set[str]:
    """Unique non-stopword tokens."""
    return {t for t in tokens if t not in stopwords}
