"""Corpus parsing, validation, splits, and label-space construction."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsclassify.corpus import (
    DatasetSplit,
    DecisionCase,
    HsCode,
    LabelSpace,
    ManualEntry,
    build_label_space,
    chronological_split,
    load_cases,
    load_manual,
    parse_hs_code,
)
from hsclassify.errors import (
    DegenerateSplitWarning,
    DuplicateHeading,
    DuplicateId,
    EmptyInput,
    MalformedCode,
    ParseError,
)
from hsclassify.synth import SynthConfig, generate

from conftest import make_case, write_jsonl


class TestParseHsCode:
    def test_dotted_national_code(self):
        code = parse_hs_code("8541.40-9000")
        assert code == HsCode(chapter="85", heading="8541", subheading="854140")

    def test_plain_six_digits(self):
        code = parse_hs_code("852859")
        assert code.chapter == "85"
        assert code.heading == "8528"
        assert code.subheading == "852859"

    def test_too_few_digits(self):
        with pytest.raises(MalformedCode):
            parse_hs_code("85.28")

    def test_non_digit_among_first_six(self):
        with pytest.raises(MalformedCode):
            parse_hs_code("85x4.40")

    def test_trailing_digits_discarded(self):
        assert parse_hs_code("854140900012").subheading == "854140"

    @given(st.integers(min_value=0, max_value=999999))
    def test_roundtrip_through_formatting(self, n):
        code = HsCode(chapter=f"{n:06d}"[:2], heading=f"{n:06d}"[:4], subheading=f"{n:06d}")
        assert parse_hs_code(str(code)) == code


class TestLoadCases:
    def test_two_valid_records(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {
                    "id": "a",
                    "description": "solar panel",
                    "hs_code": "854140",
                    "date": "2024-01-01",
                    "origin": "international",
                },
                {
                    "id": "b",
                    "description": "tv set",
                    "hs_code": "852859",
                    "date": "2024-02-01",
                    "origin": "domestic",
                },
            ],
        )
        cases = load_cases(path)
        assert [c.id for c in cases] == ["a", "b"]

    def test_missing_description_names_line(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01", "origin": "domestic"},
                {"id": "b", "hs_code": "852859", "date": "2024-01-02", "origin": "domestic"},
            ],
        )
        with pytest.raises(ParseError, match="line 2"):
            load_cases(path)

    @pytest.mark.parametrize("description", [None, ["solar", "panel"], 12345])
    def test_non_string_description_names_line(self, tmp_path, description):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"},
                {"id": "b", "description": description, "hs_code": "852859", "date": "2024-01-02"},
            ],
        )
        with pytest.raises(ParseError, match="line 2: description must be a string"):
            load_cases(path)

    @pytest.mark.parametrize("case_id, description", [("b", ""), ("b", " \t\n"), ("", "y")])
    def test_blank_id_or_description_names_line(self, tmp_path, case_id, description):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"},
                {"id": case_id, "description": description, "hs_code": "852859", "date": "2024-01-02"},
            ],
        )
        with pytest.raises(ParseError, match="line 2: (case id|description)") as raised:
            load_cases(path)
        assert raised.value.line == 2

    @pytest.mark.parametrize("case_id, description", [("a", ""), ("a", " \t\n"), ("", "x")])
    def test_a_case_built_directly_refuses_a_blank_id_or_description(self, case_id, description):
        with pytest.raises(ValueError, match="case id|description") as raised:
            DecisionCase(case_id, description, parse_hs_code("854140"), dt.date(2024, 1, 1))
        assert type(raised.value) is ValueError

    @pytest.mark.parametrize("origin", [None, "international", "anywhere", 7])
    def test_origin_is_not_required_and_ignored(self, tmp_path, origin):
        record = {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"}
        bare, keyed = tmp_path / "bare.jsonl", tmp_path / "keyed.jsonl"
        write_jsonl(bare, [record])
        write_jsonl(keyed, [{**record, "origin": origin}])
        assert load_cases(keyed) == load_cases(bare)

    def test_photovoltaic_case_record(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        description = (
            "Photovoltaic cell panel silicon (Si) embedded in plastic (EVA) and assembled "
            "a layer of glass and fiberglass with an aluminum frame, which converts "
            "sunlight into electricity."
        )
        write_jsonl(
            path,
            [
                {
                    "id": "pv-1",
                    "description": description,
                    "hs_code": "8541.40-9000",
                    "date": "2020-06-01",
                    "origin": "international",
                }
            ],
        )
        (case,) = load_cases(path)
        assert case.label.subheading == "854140"

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        record = {
            "id": "a",
            "description": "x",
            "hs_code": "854140",
            "date": "2024-01-01",
            "origin": "domestic",
        }
        write_jsonl(path, [record, record])
        with pytest.raises(DuplicateId):
            load_cases(path)

    @pytest.mark.parametrize("case_id", [None, ["a"], 7])
    def test_non_string_id_names_line(self, tmp_path, case_id):
        # A revoked record is checked too, before its id counts as seen.
        record = {"description": "x", "hs_code": "854140", "date": "2024-01-01"}
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {**record, "id": "a"},
                {**record, "id": case_id, "revoked": True},
                {**record, "id": case_id},
            ],
        )
        with pytest.raises(ParseError, match="line 2: id must be a string"):
            load_cases(path)

    def test_revoked_records_dropped(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {
                    "id": "keep",
                    "description": "x",
                    "hs_code": "854140",
                    "date": "2024-01-01",
                    "origin": "domestic",
                },
                {
                    "id": "gone",
                    "description": "y",
                    "hs_code": "854140",
                    "date": "2024-01-01",
                    "origin": "domestic",
                    "revoked": True,
                },
            ],
        )
        assert [c.id for c in load_cases(path)] == ["keep"]

    def test_future_date_rejected(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                {
                    "id": "a",
                    "description": "x",
                    "hs_code": "854140",
                    "date": "2024-06-01",
                    "origin": "domestic",
                }
            ],
        )
        with pytest.raises(ParseError, match="ingestion"):
            load_cases(path, ingestion_date=dt.date(2024, 5, 31))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_cases(path)

    def test_shared_codes_and_dates_load_as_parsed_from_scratch(self, tmp_path):
        codes, dates = ["8541.40", "854140", 854140, "8528.59-10"], ["2024-01-01", "2024-02-01"]
        records = [
            {"id": f"c{i}", "description": f"item {i}", "hs_code": codes[i % 4], "date": dates[i % 2]}
            for i in range(40)
        ]
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, records)
        cases = load_cases(path)
        assert cases == [
            make_case(r["id"], r["description"], str(r["hs_code"]), r["date"]) for r in records
        ]
        # Each distinct raw string is parsed once; its value is shared.
        assert cases[0].label is cases[4].label and cases[0].label is not cases[1].label
        assert cases[0].decision_date is cases[2].decision_date

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("hs_code", "85x140", "bad hs_code: non-digit"),
            ("hs_code", "8541", "bad hs_code: need at least 6 digits"),
            ("date", "2024-13-01", "bad date"),
            ("date", "2025-01-01", "date 2025-01-01 is after ingestion date"),
        ],
    )
    def test_bad_code_or_date_names_the_line_it_first_appears_on(
        self, tmp_path, field, value, match
    ):
        record = {"description": "x", "hs_code": "854140", "date": "2024-01-01"}
        records = [{**record, "id": f"c{i}"} for i in range(5)]
        records[2][field] = records[4][field] = value
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, records)
        with pytest.raises(ParseError, match=f"line 3: {match}") as info:
            load_cases(path, ingestion_date=dt.date(2024, 12, 31))
        assert info.value.line == 3

    def test_crlf_line_endings(self, tmp_path):
        record = {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"}
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_jsonl(lf, [record, {**record, "id": "b"}])
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_cases(crlf) == load_cases(lf)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        record = {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"}
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_jsonl(plain, [record, {**record, "id": "b"}])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_cases(marked) == load_cases(plain)

    def test_bytes_that_are_not_utf8_are_refused_with_the_file_and_line(self, tmp_path):
        # Past the first block that text mode decodes, so the line is counted
        # in the whole file.
        record = {"id": "a", "description": "x", "hs_code": "854140", "date": "2024-01-01"}
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [{**record, "id": f"c{i}"} for i in range(400)])
        path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
        with pytest.raises(ParseError, match="cases.jsonl: not UTF-8") as info:
            load_cases(path)
        assert info.value.line == 401


class TestLoadManual:
    def test_sentence_count_preserved(self, tmp_path):
        path = tmp_path / "manual.jsonl"
        write_jsonl(path, [{"heading": "8541", "sentences": [f"s{i}" for i in range(5)]}])
        entries = load_manual(path)
        assert len(entries["8541"].sentences) == 5

    def test_empty_sentence_list_rejected(self, tmp_path):
        path = tmp_path / "manual.jsonl"
        write_jsonl(path, [{"heading": "8541", "sentences": []}])
        with pytest.raises(ParseError):
            load_manual(path)

    @pytest.mark.parametrize(
        "sentences, message",
        [
            ([], "manual entry 8541 has no sentences"),
            (["a", "  "], "manual entry 8541 contains an empty sentence"),
            (["a", 7], "heading 8541: sentences must be a list of strings"),
            ("a", "heading 8541: sentences must be a list of strings"),
        ],
    )
    def test_bad_sentences_refused_naming_the_line(self, tmp_path, sentences, message):
        path = tmp_path / "manual.jsonl"
        write_jsonl(
            path,
            [{"heading": "8501", "sentences": ["a"]}, {"heading": "85.41", "sentences": sentences}],
        )
        with pytest.raises(ParseError) as info:
            load_manual(path)
        assert str(info.value) == f"line 2: {message}"
        assert info.value.line == 2

    def test_entry_without_sentences_refused(self):
        # So key-sentence retrieval never meets an entry with nothing to select.
        with pytest.raises(ValueError, match="manual entry 8541 has no sentences"):
            ManualEntry(heading="8541", sentences=())

    def test_dotted_heading_normalized(self, tmp_path):
        path = tmp_path / "manual.jsonl"
        sentences = [
            "Diodes, transistors and similar semiconductor devices; photosensitive "
            "semiconductor devices, including photovoltaic cells whether or not assembled "
            "in modules or made up into panels.",
            "This group comprises photosensitive semiconductor devices in which the action "
            "of visible rays causes variations in resistivity or generates an "
            "electromotive force.",
            "Photoemissive tubes the operation of which is based on the external "
            "photoelectric effect belong elsewhere.",
        ]
        write_jsonl(path, [{"heading": "85.41", "sentences": sentences}])
        entries = load_manual(path)
        assert list(entries) == ["8541"]
        assert entries["8541"].sentences == tuple(sentences)

    def test_duplicate_heading_rejected(self, tmp_path):
        path = tmp_path / "manual.jsonl"
        write_jsonl(
            path,
            [
                {"heading": "8541", "sentences": ["a"]},
                {"heading": "85.41", "sentences": ["b"]},
            ],
        )
        with pytest.raises(DuplicateHeading):
            load_manual(path)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_jsonl(plain, [{"heading": "8541", "sentences": ["a"]}])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_manual(marked) == load_manual(plain)

    def test_bytes_that_are_not_utf8_are_refused_with_the_file_and_line(self, tmp_path):
        # Lines end at "\r\n" or a lone "\r" too, as text mode reads them.
        path = tmp_path / "manual.jsonl"
        path.write_bytes(
            b'\xef\xbb\xbf{"heading": "8541", "sentences": ["a"]}\r\n\r'
            b'{"heading": "8542", "sentences": ["caf\xe9"]}\r\n'
        )
        with pytest.raises(ParseError, match="manual.jsonl: not UTF-8") as info:
            load_manual(path)
        assert info.value.line == 3


class TestChronologicalSplit:
    def test_year_of_months_defaults(self):
        cases = [make_case(f"c{m}", date=f"2024-{m:02d}-15") for m in range(1, 13)]
        split = chronological_split(cases)
        assert {c.id for c in split.test} == {"c10", "c11", "c12"}
        assert {c.id for c in split.validation} == {"c7", "c8", "c9"}
        assert {c.id for c in split.train} == {f"c{m}" for m in range(1, 7)}

    def test_single_date_degenerates_with_warning(self):
        cases = [make_case(f"c{i}", date="2024-03-01") for i in range(4)]
        with pytest.warns(DegenerateSplitWarning):
            split = chronological_split(cases)
        assert split.train == ()
        assert split.validation == ()
        assert len(split.test) == 4

    def test_counts_for_monthly_cases(self):
        cases = [make_case(f"c{m}", date=f"2024-{m:02d}-01") for m in range(1, 13)]
        split = chronological_split(cases)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 3, 3)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            chronological_split([])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.dates(min_value=dt.date(2015, 1, 1), max_value=dt.date(2024, 12, 31)),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_partition_property(self, dates, val_months, test_months):
        cases = [make_case(f"c{i}", date=d.isoformat()) for i, d in enumerate(dates)]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSplitWarning)
            split = chronological_split(cases, val_months, test_months)
        all_ids = sorted(c.id for c in cases)
        split_ids = sorted(c.id for part in (split.train, split.validation, split.test) for c in part)
        assert split_ids == all_ids
        assert split.test  # the anchor month is always in the test window


class TestDatasetSplitInvariants:
    def test_overlapping_ids_rejected(self):
        case = make_case("dup")
        with pytest.raises(ValueError):
            DatasetSplit(train=(case,), validation=(case,), test=())

    def test_chronology_enforced(self):
        early = make_case("early", date="2024-01-01")
        late = make_case("late", date="2024-12-01")
        mid = make_case("mid", date="2024-06-01")
        with pytest.raises(ValueError):
            DatasetSplit(train=(late,), validation=(mid,), test=(early,))


class TestBuildLabelSpace:
    def test_two_codes(self):
        cases = [make_case("a", code="854140"), make_case("b", code="852859")]
        space = build_label_space(cases)
        assert space.headings == ("8528", "8541")
        assert space.subheadings == ("852859", "854140")

    def test_single_case(self):
        space = build_label_space([make_case("a")])
        assert len(space.headings) == 1
        assert len(space.subheadings) == 1

    def test_synthetic_corpus_counts(self):
        corpus = generate(SynthConfig(seed=3))
        space = build_label_space(corpus.cases)
        assert len(space.headings) == 20
        assert len(space.subheadings) == 60

    def test_subheading_prefixes_are_headings(self):
        cases = [make_case("a", code="854140"), make_case("b", code="854151")]
        space = build_label_space(cases)
        assert all(s[:4] in space.heading_index for s in space.subheadings)

    def test_index_maps_are_inverse(self):
        space = build_label_space([make_case("a", code="854140"), make_case("b", code="852859")])
        for i, h in enumerate(space.headings):
            assert space.heading_index[h] == i
        for i, s in enumerate(space.subheadings):
            assert space.subheading_index[s] == i

    def test_orphan_subheading_rejected(self):
        with pytest.raises(ValueError):
            LabelSpace(headings=("8528",), subheadings=("854140",))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_label_space([])
