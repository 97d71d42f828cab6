"""Decision-case and HS-manual corpus: parsing, validation, label space, splits.

File formats (both JSON Lines, one record per line):

* case file:   {"id" (str), "description" (str), "hs_code", "date",
                "revoked"? (bool), "gold_evidence"? ([str])}
* manual file: {"heading", "sentences": [str]}

Records with ``"revoked": true`` are dropped at ingestion. Keys outside
these (such as the ``"origin"`` older case files carry) are ignored.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DegenerateSplitWarning,
    DuplicateHeading,
    DuplicateId,
    EmptyInput,
    MalformedCode,
    ParseError,
)
from .textproc import open_text

_SEPARATORS = str.maketrans("", "", ".- \t")


@dataclass(frozen=True)
class HsCode:
    """Six-digit HS code split into its chapter/heading/subheading levels.

    The three fields are nested prefixes: ``chapter`` (2 digits) prefixes
    ``heading`` (4 digits) which prefixes ``subheading`` (6 digits).
    """

    chapter: str
    heading: str
    subheading: str

    def __post_init__(self):
        for name, value, length in (
            ("chapter", self.chapter, 2),
            ("heading", self.heading, 4),
            ("subheading", self.subheading, 6),
        ):
            if len(value) != length or not value.isdigit():
                raise MalformedCode(f"{name} must be {length} decimal digits, got {value!r}")
        if not self.heading.startswith(self.chapter):
            raise MalformedCode(f"heading {self.heading!r} does not extend chapter {self.chapter!r}")
        if not self.subheading.startswith(self.heading):
            raise MalformedCode(
                f"subheading {self.subheading!r} does not extend heading {self.heading!r}"
            )

    def __str__(self) -> str:
        return f"{self.subheading[:4]}.{self.subheading[4:]}"


def parse_hs_code(raw: str) -> HsCode:
    """Parse a raw code string into an HsCode.

    Separator characters ('.', '-', whitespace) are removed; the first six
    digits form the code and any trailing national digits are discarded.
    Raises MalformedCode when fewer than six digits remain or a non-digit
    sits among the first six characters.
    """
    cleaned = raw.translate(_SEPARATORS)
    if len(cleaned) < 6:
        raise MalformedCode(f"need at least 6 digits, got {raw!r}")
    head = cleaned[:6]
    if not head.isdigit():
        raise MalformedCode(f"non-digit character among the first 6 of {raw!r}")
    return HsCode(chapter=head[:2], heading=head[:4], subheading=head)


def _parse_heading(raw: str) -> str:
    cleaned = raw.translate(_SEPARATORS)
    if len(cleaned) != 4 or not cleaned.isdigit():
        raise MalformedCode(f"heading must normalize to 4 decimal digits, got {raw!r}")
    return cleaned


@dataclass(frozen=True)
class DecisionCase:
    """One past classification ruling: an item description and its code."""

    id: str
    description: str
    label: HsCode
    decision_date: dt.date
    gold_evidence: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("case id cannot be empty")
        if not self.description.strip():
            raise ValueError("description must contain a non-whitespace character")


@dataclass(frozen=True)
class ManualEntry:
    """Ordered explanation sentences for one heading."""

    heading: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        _parse_heading(self.heading)
        if not self.sentences:
            raise ValueError(f"manual entry {self.heading} has no sentences")
        if any(not s.strip() for s in self.sentences):
            raise ValueError(f"manual entry {self.heading} contains an empty sentence")


@dataclass(frozen=True)
class LabelSpace:
    """Ordered heading and subheading label sets with index maps."""

    headings: tuple[str, ...]
    subheadings: tuple[str, ...]
    heading_index: dict[str, int] = field(default_factory=dict)
    subheading_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "heading_index", {h: i for i, h in enumerate(self.headings)})
        object.__setattr__(self, "subheading_index", {s: i for i, s in enumerate(self.subheadings)})
        if len(self.heading_index) != len(self.headings):
            raise ValueError("headings are not unique")
        if len(self.subheading_index) != len(self.subheadings):
            raise ValueError("subheadings are not unique")
        missing = [s for s in self.subheadings if s[:4] not in self.heading_index]
        if missing:
            raise ValueError(f"subheadings without a parent heading: {missing}")


@dataclass(frozen=True)
class DatasetSplit:
    """Chronological train/validation/test partition of decision cases."""

    train: tuple[DecisionCase, ...]
    validation: tuple[DecisionCase, ...]
    test: tuple[DecisionCase, ...]

    def __post_init__(self):
        ids = [c.id for part in (self.train, self.validation, self.test) for c in part]
        if len(ids) != len(set(ids)):
            raise ValueError("split partitions are not disjoint by id")
        if self.train and self.validation and self.test:
            if not (
                max(c.decision_date for c in self.train)
                < min(c.decision_date for c in self.validation)
                <= max(c.decision_date for c in self.validation)
                < min(c.decision_date for c in self.test)
            ):
                raise ValueError("split partitions are not chronologically ordered")


def _case_from_record(
    record: dict,
    line: int,
    ingestion_date: dt.date,
    codes: dict[str, HsCode],
    dates: dict[str, dt.date],
) -> DecisionCase:
    """The case of ``record``, which sits on ``line``; ParseError names the line.

    A blank id or description is refused by ``DecisionCase`` itself, whose
    ``ValueError`` becomes the ParseError. ``codes`` and ``dates`` map each
    raw code and date string already parsed in this load to its value, so
    each distinct string is parsed once. Both values are immutable, so cases
    share them.
    """
    for key in ("id", "description", "hs_code", "date"):
        if key not in record:
            raise ParseError(f"missing field {key!r}", line)
    description = record["description"]
    if not isinstance(description, str):
        raise ParseError("description must be a string", line)
    raw_code = str(record["hs_code"])
    label = codes.get(raw_code)
    if label is None:
        try:
            label = codes[raw_code] = parse_hs_code(raw_code)
        except MalformedCode as exc:
            raise ParseError(f"bad hs_code: {exc}", line) from exc
    raw_date = str(record["date"])
    date = dates.get(raw_date)
    if date is None:
        try:
            date = dates[raw_date] = dt.date.fromisoformat(raw_date)
        except ValueError as exc:
            raise ParseError(f"bad date: {exc}", line) from exc
    if date > ingestion_date:
        raise ParseError(f"date {date.isoformat()} is after ingestion date", line)
    gold = record.get("gold_evidence")
    if gold is not None:
        if not isinstance(gold, list) or any(not isinstance(s, str) or not s.strip() for s in gold):
            raise ParseError("gold_evidence must be a list of non-empty strings", line)
        gold = tuple(gold)
    try:
        return DecisionCase(
            id=record["id"],
            description=description,
            label=label,
            decision_date=date,
            gold_evidence=gold,
        )
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


def load_cases(path: str | Path, ingestion_date: dt.date | None = None) -> list[DecisionCase]:
    """Load decision cases from a JSON-Lines file, in file order.

    Revoked records are dropped. Duplicate ids (anywhere in the file) raise
    DuplicateId; any invalid record raises ParseError naming its line.
    """
    if ingestion_date is None:
        ingestion_date = dt.date.today()
    cases: list[DecisionCase] = []
    seen: set[str] = set()
    codes: dict[str, HsCode] = {}
    dates: dict[str, dt.date] = {}
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", line_no) from exc
            if not isinstance(record, dict):
                raise ParseError("record is not an object", line_no)
            case_id = record.get("id", "")
            if not isinstance(case_id, str):
                raise ParseError("id must be a string", line_no)
            if case_id in seen:
                raise DuplicateId(f"line {line_no}: duplicate case id {case_id!r}")
            if case_id:
                seen.add(case_id)
            if record.get("revoked"):
                continue
            cases.append(_case_from_record(record, line_no, ingestion_date, codes, dates))
    return cases


def load_manual(path: str | Path) -> dict[str, ManualEntry]:
    """Load heading-level manual entries keyed by 4-digit heading.

    Headings may use separator characters in the file ("85.41" and "8541"
    are equivalent); sentence order is preserved as given.
    """
    entries: dict[str, ManualEntry] = {}
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", line_no) from exc
            if not isinstance(record, dict) or "heading" not in record or "sentences" not in record:
                raise ParseError("manual record needs 'heading' and 'sentences'", line_no)
            try:
                heading = _parse_heading(str(record["heading"]))
            except MalformedCode as exc:
                raise ParseError(str(exc), line_no) from exc
            if heading in entries:
                raise DuplicateHeading(f"line {line_no}: duplicate heading {heading!r}")
            sentences = record["sentences"]
            if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
                raise ParseError(f"heading {heading}: sentences must be a list of strings", line_no)
            try:
                entries[heading] = ManualEntry(heading=heading, sentences=tuple(sentences))
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from exc
    return entries


def _month_index(date: dt.date) -> int:
    return date.year * 12 + date.month - 1


def chronological_split(
    cases: list[DecisionCase],
    validation_months: int = 3,
    test_months: int = 3,
) -> DatasetSplit:
    """Partition cases into train/validation/test by calendar month.

    The test window is the last ``test_months`` calendar months ending at the
    most recent case date; the validation window is the ``validation_months``
    immediately before it; everything earlier is training data.
    """
    if not cases:
        raise EmptyInput("no cases to split")
    if validation_months < 1 or test_months < 1:
        raise ValueError("window sizes must be >= 1 month")
    anchor = max(_month_index(c.decision_date) for c in cases)
    test_start = anchor - test_months + 1
    val_start = test_start - validation_months

    train, validation, test = [], [], []
    for case in cases:
        month = _month_index(case.decision_date)
        if month >= test_start:
            test.append(case)
        elif month >= val_start:
            validation.append(case)
        else:
            train.append(case)
    if not train or not validation:
        warnings.warn(
            "chronological split produced an empty train or validation partition",
            DegenerateSplitWarning,
            stacklevel=2,
        )
    return DatasetSplit(train=tuple(train), validation=tuple(validation), test=tuple(test))


def build_label_space(cases: list[DecisionCase]) -> LabelSpace:
    """Collect the sorted unique heading and subheading labels of ``cases``."""
    if not cases:
        raise EmptyInput("no cases to build a label space from")
    headings = sorted({c.label.heading for c in cases})
    subheadings = sorted({c.label.subheading for c in cases})
    return LabelSpace(headings=tuple(headings), subheadings=tuple(subheadings))
