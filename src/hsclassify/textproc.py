"""Tokenization, stopwords, static word vectors, IDF statistics, similarity.

These primitives are shared by the encoder, the key-sentence retriever, and
the word-matching baseline. All tables are immutable after construction.
"""

from __future__ import annotations

import math
import re
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

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


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text, a leading byte-order mark skipped.

    A byte that is not UTF-8 raises ``ParseError`` naming the file and its
    line, found only then, by reading the file again as bytes.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]  # lines end at "\n", "\r\n" or "\r", as in text mode
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(f"{path}: not UTF-8 ({exc.reason})", line) from None
        raise


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file, one token per line; blank lines ignored."""
    with open_text(path) as handle:
        return frozenset(w.strip().lower() for w in handle if w.strip())


class WordVectorTable:
    """Fixed-dimension static word vectors; unknown tokens map to zeros.

    Token ``t`` has the id ``index[t]``: its vector is row ``index[t]`` of
    ``matrix`` (V x d) and its unit vector row ``index[t]`` of ``unit_rows``,
    whose last row, id V, is the zero row of every unknown token. Both arrays
    are read-only and built once, with the table.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        dims = {len(v) for v in vectors.values()}
        if len(dims) > 1:
            raise DimensionMismatch(f"inconsistent vector lengths: {sorted(dims)}")
        self._build(list(vectors), np.array(list(vectors.values()), dtype=float))

    @classmethod
    def from_rows(cls, tokens: Sequence[str], matrix: np.ndarray) -> "WordVectorTable":
        """The table whose token ``tokens[i]`` has the vector ``matrix[i]``.

        A float ``matrix`` is not copied: it becomes the table's read-only
        ``matrix``. The constructor copies the vectors it is given.
        """
        table = cls.__new__(cls)
        table._build(list(tokens), np.asarray(matrix, dtype=float))
        return table

    def _build(self, tokens: list[str], matrix: np.ndarray) -> None:
        if not tokens:
            raise EmptyInput("word vector table is empty")
        if matrix.ndim != 2 or len(matrix) != len(tokens):
            raise DimensionMismatch(f"{len(tokens)} tokens for vectors of shape {matrix.shape}")
        index = {token: i for i, token in enumerate(tokens)}
        if len(index) < len(tokens):  # a repeated token keeps its last vector
            matrix = matrix[list(index.values())]
            index = dict(zip(index, range(len(index))))
        self.index = index
        self.dimension = matrix.shape[1]
        self.matrix = matrix
        self.unit_rows = _unit_table(matrix)
        self.matrix.flags.writeable = False
        self.unit_rows.flags.writeable = False
        self._zero = self.unit_rows[-1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, token: str) -> np.ndarray:
        """Read-only vector for ``token``, or a read-only zero vector when out of vocabulary."""
        i = self.index.get(token)
        return self._zero if i is None else self.matrix[i]

    def ids(self, tokens: Iterable[str]) -> np.ndarray:
        """Each token's id, in order; V, the zero unit row's id, for a token without a vector."""
        unknown = len(self.index)
        return np.array([self.index.get(token, unknown) for token in tokens], dtype=np.intp)

    def tokens(self) -> list[str]:
        return list(self.index)

    @classmethod
    def load(cls, path: str | Path) -> "WordVectorTable":
        """Parse a text vector file: ``token v1 ... vd`` per line.

        An optional first line ``count dim`` (two integers) is accepted and
        skipped, matching common pretrained-vector releases. A value is any
        string Python's ``float()`` reads. Each line's values are converted
        in one call and streamed into one buffer, 8 bytes per value, which
        is checked for non-finite values once, at the end. The first fault
        in file order is reported: a bad value, a token with no values or a
        non-finite value, and after those, inconsistent lengths.
        """
        tokens: list[str] = []
        values = array("d")  # every row's values, end to end
        ends = array("q")  # where each row ends in values
        lines = array("q")  # each row's line number
        fault = None  # the line that stopped the read
        with open_text(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                token, *fields = line.rstrip("\n").split(" ")
                if not line.strip():
                    continue
                if line_no == 1 and len(fields) == 1:
                    try:
                        int(token), int(fields[0])
                        continue  # header line
                    except ValueError:
                        pass
                if "" in fields:  # from repeated or trailing spaces
                    fields = [x for x in fields if x != ""]
                try:
                    row = np.array(fields, dtype=float)
                except ValueError as exc:
                    fault = ParseError(f"bad vector value: {exc}", line_no)
                    break
                if not fields:
                    fault = ParseError(f"token {token!r} has no vector values", line_no)
                    break
                tokens.append(token)
                lines.append(line_no)
                values.frombytes(row.tobytes())
                ends.append(len(values))
        # Every row read precedes the fault, so a non-finite value is reported first.
        non_finite = np.flatnonzero(~np.isfinite(values))
        if non_finite.size:
            i = int(np.searchsorted(ends, non_finite[0], side="right"))
            raise ParseError(f"token {tokens[i]!r} has a non-finite vector value", lines[i])
        if fault is not None:
            raise fault
        lengths = set(np.diff(ends, prepend=0).tolist())
        if len(lengths) > 1:
            raise DimensionMismatch(f"inconsistent vector lengths: {sorted(lengths)}")
        dimension = lengths.pop() if lengths else 0
        return cls.from_rows(tokens, np.frombuffer(values).reshape(len(tokens), dimension))


# ``cosine`` and ``rescale_rows`` rescale a nonzero vector whose norm is
# below this (its squared components are subnormal and skew the norm) or
# overflows to inf.
RESCALE_BELOW = 1e-150


def rescale_rows(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Divide in place each nonzero row that ``cosine`` would rescale by its largest absolute value.

    A row's norm, ``norms[i, 0]``, is below ``RESCALE_BELOW`` or inf. Returns
    the rescaled rows' indices; the caller recomputes their norms.
    """
    rescaled = np.flatnonzero(((norms < RESCALE_BELOW) | (norms == np.inf))[:, 0])
    if rescaled.size:
        rescaled = rescaled[rows[rescaled].any(axis=1)]
        rows[rescaled] /= np.abs(rows[rescaled]).max(axis=1, keepdims=True)
    return rescaled


def _unit_table(matrix: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` over its L2 norm, then one zero row.

    Norms are row-wise, so a row gets the bits it gets alone; a row of
    zeros is kept as it is, and one that ``rescale_rows`` rescales is
    divided by its norm after the rescale.
    """
    table = np.zeros((len(matrix) + 1, matrix.shape[1]))
    rows = table[:-1]
    rows[:] = matrix
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rescaled = rescale_rows(rows, norms)
    norms[rescaled] = np.linalg.norm(rows[rescaled], axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    np.divide(rows, norms, out=rows)
    return table


def compute_idf(documents: list[list[str]], vocabulary: Iterable[str]) -> np.ndarray:
    """The idf weight of each ``vocabulary`` token, in order: ln(N / df(t)).

    A token in no document falls back to df = 1, i.e. ln(N).
    """
    if not documents:
        raise EmptyInput("need at least one document for idf statistics")
    n = len(documents)
    df: dict[str, int] = {}
    for doc in documents:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    unseen = math.log(n)
    return np.array([math.log(n / df[t]) if t in df else unseen for t in vocabulary], float)


def cosine(u, v) -> float:
    """Cosine similarity; 0.0 when either vector is all zeros."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector lengths differ: {u.shape} vs {v.shape}")
    with np.errstate(over="ignore"):
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
    if nu < RESCALE_BELOW or nv < RESCALE_BELOW or nu == np.inf or nv == np.inf:
        if not (u.any() and v.any()):
            return 0.0
        # The cosine is scale-free, so rescale and recompute.
        return cosine(u / np.abs(u).max(), v / np.abs(v).max())
    return float(np.dot(u, v) / (nu * nv))


def content_keywords(
    tokens: list[str], stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> set[str]:
    """Unique non-stopword tokens."""
    return {t for t in tokens if t not in stopwords}
