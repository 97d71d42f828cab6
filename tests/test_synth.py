"""Synthetic corpus generator: counts, determinism, file outputs."""

from __future__ import annotations

import json

import pytest

from hsclassify.corpus import build_label_space, chronological_split, load_cases, load_manual
from hsclassify.synth import REVOKED_CASES, SynthConfig, generate, write_corpus
from hsclassify.textproc import WordVectorTable, tokenize


class TestGenerate:
    def test_default_shape(self):
        corpus = generate(SynthConfig(seed=2))
        space = build_label_space(corpus.cases)
        assert len(space.headings) == 20
        assert len(space.subheadings) == 60
        assert len(corpus.cases) == 60 * 60
        assert len(corpus.manual) == 20

    def test_split_counts_per_subheading(self):
        corpus = generate(SynthConfig(seed=2))
        split = chronological_split(corpus.cases)
        assert len(split.train) == 3000
        assert len(split.validation) == 300
        assert len(split.test) == 300
        from collections import Counter

        per_sub = Counter(c.label.subheading for c in split.test)
        assert set(per_sub.values()) == {5}

    def test_same_seed_is_identical(self):
        first = generate(SynthConfig(seed=5))
        second = generate(SynthConfig(seed=5))
        assert [c.description for c in first.cases] == [c.description for c in second.cases]
        assert first.manual == second.manual

    def test_different_seeds_differ(self):
        first = generate(SynthConfig(seed=5))
        second = generate(SynthConfig(seed=6))
        assert [c.description for c in first.cases] != [c.description for c in second.cases]

    def test_descriptions_avoid_manual_vocabulary(self):
        # The manual-side synonym spellings appear in descriptions only via
        # the occasional quoted token, so literal matching stays weak.
        corpus = generate(SynthConfig(seed=2))
        manual_tokens = set()
        for entry in corpus.manual.values():
            for sentence in entry.sentences:
                manual_tokens.update(tokenize(sentence))
        overlapping = 0
        for case in corpus.cases:
            if manual_tokens & set(tokenize(case.description)) - {"with", "for", "the"}:
                overlapping += 1
        assert overlapping / len(corpus.cases) < 0.3

    def test_gold_evidence_only_on_test_window(self):
        corpus = generate(SynthConfig(seed=2))
        split = chronological_split(corpus.cases)
        assert all(c.gold_evidence for c in split.test)
        assert all(c.gold_evidence is None for c in split.train)

    def test_gold_evidence_sentences_exist_in_manual(self):
        corpus = generate(SynthConfig(seed=2))
        split = chronological_split(corpus.cases)
        for case in split.test[:20]:
            entry = corpus.manual[case.label.heading]
            assert all(s in entry.sentences for s in case.gold_evidence)

    def test_manual_sentence_budget(self):
        corpus = generate(SynthConfig(seed=2))
        for entry in corpus.manual.values():
            assert 1 <= len(entry.sentences) <= 7


class TestWriteCorpus:
    def test_files_roundtrip_through_loaders(self, tmp_path):
        config = SynthConfig(
            headings=4,
            subheadings_per_heading=2,
            train_per_subheading=4,
            validation_per_subheading=2,
            test_per_subheading=2,
            vector_dimension=8,
            seed=3,
        )
        corpus = generate(config)
        paths = write_corpus(corpus, tmp_path, config)
        # Field for field; the revoked records are dropped on load.
        assert load_cases(paths["cases"]) == corpus.cases
        assert load_manual(paths["manual"]) == corpus.manual
        vectors = WordVectorTable.load(paths["vectors"])
        assert vectors.dimension == 8

    def test_revoked_records_present_in_file(self, tmp_path):
        config = SynthConfig(
            headings=2,
            subheadings_per_heading=2,
            train_per_subheading=2,
            validation_per_subheading=1,
            test_per_subheading=1,
            vector_dimension=4,
            seed=3,
        )
        paths = write_corpus(generate(config), tmp_path, config)
        lines = paths["cases"].read_text().splitlines()
        revoked = [json.loads(l) for l in lines if json.loads(l).get("revoked")]
        assert len(revoked) == REVOKED_CASES

    def test_config_file_is_complete(self, tmp_path):
        config = SynthConfig(
            headings=2,
            subheadings_per_heading=2,
            train_per_subheading=2,
            validation_per_subheading=1,
            test_per_subheading=1,
            vector_dimension=4,
            seed=3,
        )
        paths = write_corpus(generate(config), tmp_path, config)
        data = json.loads(paths["config"].read_text())
        for key in ("cases", "manual", "vectors", "checkpoint_dir", "seed"):
            assert key in data

    def test_write_is_deterministic(self, tmp_path):
        config = SynthConfig(
            headings=2,
            subheadings_per_heading=2,
            train_per_subheading=2,
            validation_per_subheading=1,
            test_per_subheading=1,
            vector_dimension=4,
            seed=3,
        )
        write_corpus(generate(config), tmp_path / "a", config)
        write_corpus(generate(config), tmp_path / "b", config)
        for name in ("cases.jsonl", "manual.jsonl", "vectors.txt", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(headings=0)
    with pytest.raises(ValueError):
        SynthConfig(subheadings_per_heading=10)
    with pytest.raises(ValueError):
        SynthConfig(train_per_subheading=0)
    for dimension in (0, -1):
        with pytest.raises(ValueError, match="vector_dimension"):
            SynthConfig(vector_dimension=dimension)
