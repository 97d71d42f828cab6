"""Tokenization, stopwords, static word vectors, IDF statistics and their value ranges.

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

from .errors import DimensionMismatch, EmptyInput, OutOfRange, ParseError

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


# Every word-vector component is 0 or of magnitude in VECTOR_RANGE, and every
# idf weight 0 or in WEIGHT_RANGE (so none is negative); NaN and inf are
# outside both. Real embeddings lie within about 1e-6 to 10, and
# ``compute_idf``'s weights are 0 or ln(N / df) >= 1 / N. Pooling needs no
# rescue inside these ranges:
# - No overflow. Each term w * v is 0 or of magnitude in [1e-70, 1e70], so
#   no sum of up to 2**31 terms overflows. A mean with non-negative weights
#   lies within 1e50 in every component, so its squared norm does not
#   overflow either.
# - No underflow. A nonzero float sum of such terms is at least about
#   2**-53 * 1e-70, and the total weight at most about 2e29, so every
#   nonzero mean component is at least about 1e-116 and its square is a
#   normal float. (Vectors down to 1e-100 would give about 1e-165.)
VECTOR_RANGE = (1e-50, 1e50)
WEIGHT_RANGE = (1e-20, 1e20)
_VECTOR_RULE = "a value must be 0, or finite with magnitude from {:g} to {:g}".format(*VECTOR_RANGE)


def first_outside(values: np.ndarray, low: float, high: float) -> int | None:
    """The flat index of the first value neither 0 nor within [low, high]; None if there is none.

    NaN lies outside every range.
    """
    inside = (values >= low) & (values <= high) | (values == 0.0)
    return None if inside.all() else int(np.argmin(inside, axis=None))


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
        bad = first_outside(np.abs(matrix), *VECTOR_RANGE)
        if bad is not None:
            token, value = tokens[bad // matrix.shape[1]], float(matrix.flat[bad])
            raise OutOfRange(f"token {token!r} has the vector value {value!r}; {_VECTOR_RULE}")
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
        is checked against ``VECTOR_RANGE`` once, at the end. The first
        fault in file order is reported: a bad value, a token with no values
        or a value out of range (named with the file, line and token), and
        after those, inconsistent lengths.
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
        # Every row read precedes the fault, so a value out of range is reported first.
        bad = first_outside(np.abs(values), *VECTOR_RANGE)
        if bad is not None:
            i = int(np.searchsorted(ends, bad, side="right"))
            message = f"{path}: token {tokens[i]!r} has the vector value {values[bad]!r}"
            raise ParseError(f"{message}; {_VECTOR_RULE}", lines[i])
        if fault is not None:
            raise fault
        lengths = set(np.diff(ends, prepend=0).tolist())
        if len(lengths) > 1:
            raise DimensionMismatch(f"inconsistent vector lengths: {sorted(lengths)}")
        dimension = lengths.pop() if lengths else 0
        return cls.from_rows(tokens, np.frombuffer(values).reshape(len(tokens), dimension))


def _unit_table(matrix: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` over its L2 norm, then one zero row.

    Norms are row-wise, so a row gets the bits it gets alone; a row of
    zeros is kept as it is. A table in ``VECTOR_RANGE`` has no norm that
    overflows, nor a nonzero one below 1e-50.
    """
    table = np.zeros((len(matrix) + 1, matrix.shape[1]))
    rows = table[:-1]
    rows[:] = matrix
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
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


def content_keywords(
    tokens: list[str], stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS
) -> set[str]:
    """Unique non-stopword tokens."""
    return {t for t in tokens if t not in stopwords}
