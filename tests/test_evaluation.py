"""Top-k accuracy, evidence precision/recall, word-matching baseline."""

from __future__ import annotations

import random

import pytest

from hsclassify.corpus import ManualEntry
from hsclassify.errors import BadK, EmptyInput
from hsclassify.evaluation import top_k_accuracy

from oracles import retrieval_precision_recall, word_matching_baseline, word_matching_reference


class TestTopKAccuracy:
    def test_gold_always_first(self):
        ranked = [["a", "b", "c"]] * 4
        gold = ["a"] * 4
        for k in (1, 2, 3):
            assert top_k_accuracy(ranked, gold, k) == 1.0

    def test_gold_always_second(self):
        ranked = [["x", "gold", "y"]] * 5
        gold = ["gold"] * 5
        assert top_k_accuracy(ranked, gold, 1) == 0.0
        assert top_k_accuracy(ranked, gold, 3) == 1.0

    def test_hand_counted_ranks(self):
        # gold ranks across ten cases: 1,2,4,1,3,6,1,2,5,1
        ranks = [1, 2, 4, 1, 3, 6, 1, 2, 5, 1]
        ranked = []
        for rank in ranks:
            candidates = [f"other{j}" for j in range(6)]
            candidates.insert(rank - 1, "gold")
            ranked.append(candidates)
        gold = ["gold"] * 10
        assert top_k_accuracy(ranked, gold, 1) == pytest.approx(0.4)
        assert top_k_accuracy(ranked, gold, 3) == pytest.approx(0.7)
        assert top_k_accuracy(ranked, gold, 5) == pytest.approx(0.9)

    def test_monotone_in_k(self):
        rng = random.Random(4)
        labels = [f"c{i}" for i in range(8)]
        ranked = []
        gold = []
        for _ in range(30):
            order = labels[:]
            rng.shuffle(order)
            ranked.append(order)
            gold.append(rng.choice(labels))
        values = [top_k_accuracy(ranked, gold, k) for k in (1, 3, 5)]
        assert values[0] <= values[1] <= values[2]

    def test_tuple_rankings(self):
        ranked = [("a", "b", "c"), ("x", "a", "y"), ("x", "y", "a")]
        gold = ["a"] * 3
        assert [top_k_accuracy(ranked, gold, k) for k in (1, 2, 3)] == [1 / 3, 2 / 3, 1.0]
        assert top_k_accuracy(ranked, gold, 2) == top_k_accuracy([list(r) for r in ranked], gold, 2)

    def test_rankings_shorter_than_k(self):
        ranked = [["a"], ("b", "a"), [], ("b",)]
        gold = ["a"] * 4
        assert top_k_accuracy(ranked, gold, 1) == 0.25
        assert top_k_accuracy(ranked, gold, 2) == 0.5
        assert top_k_accuracy(ranked, gold, 10) == 0.5

    def test_bad_k(self):
        with pytest.raises(BadK):
            top_k_accuracy([["a"]], ["a"], 0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            top_k_accuracy([], [], 1)


class TestRetrievalPrecisionRecall:
    def test_three_of_four_matched(self):
        gold = [
            "Transmission apparatus for radio broadcasting and video camera recorders",
            "This group covers cameras that capture images into signals",
            "In digital cameras and video camera recorders images are recorded onto a storage device",
            "Parts of apparatus for transmission or reception of voice or images",
        ]
        retrieved = [
            "Transmission apparatus for radio broadcasting and video camera recorders",
            "This group covers cameras that capture images into signals",
            "In digital cameras and video camera recorders images are recorded onto a storage device",
            "Totally unrelated sentence about woven fabrics of cotton yarn",
        ]
        outcome = retrieval_precision_recall(retrieved, gold)
        assert outcome.matches == 3
        assert outcome.precision == 0.75
        assert outcome.recall == 0.75

    def test_verbatim_equality(self):
        sentences = ["alpha beta gamma", "delta epsilon"]
        outcome = retrieval_precision_recall(sentences, sentences)
        assert (outcome.precision, outcome.recall) == (1.0, 1.0)

    def test_zero_retrieved_nonempty_gold(self):
        outcome = retrieval_precision_recall([], ["some gold sentence"])
        assert outcome.precision == 0.0
        assert outcome.recall == 0.0

    def test_empty_gold_leaves_recall_undefined(self):
        outcome = retrieval_precision_recall(["anything here"], [])
        assert outcome.recall is None
        assert outcome.precision == 0.0

    def test_gold_matchable_at_most_once(self):
        gold = ["solar panel assembly"]
        retrieved = ["solar panel assembly", "solar panel assembly"]
        outcome = retrieval_precision_recall(retrieved, gold)
        assert outcome.matches == 1
        assert outcome.precision == 0.5
        assert outcome.recall == 1.0

    def test_below_threshold_does_not_match(self):
        outcome = retrieval_precision_recall(
            ["one shared word only panel"], ["panel plus entirely different content words here"]
        )
        assert outcome.matches == 0

    def test_threshold_is_configurable(self):
        retrieved = ["solar panel frame node"]
        gold = ["solar panel glass wire"]  # overlap F1 = 0.5
        assert retrieval_precision_recall(retrieved, gold).matches == 0
        assert retrieval_precision_recall(retrieved, gold, threshold=0.5).matches == 1

    def test_permuting_retrieved_never_changes_outcome(self):
        rng = random.Random(11)
        vocab = ["solar", "panel", "cell", "glass", "diode", "frame", "wire", "relay"]
        gold = [" ".join(rng.sample(vocab, 4)) for _ in range(4)]
        retrieved = [" ".join(rng.sample(vocab, 4)) for _ in range(5)]
        base = retrieval_precision_recall(retrieved, gold)
        for _ in range(20):
            shuffled = retrieved[:]
            rng.shuffle(shuffled)
            outcome = retrieval_precision_recall(shuffled, gold)
            assert (outcome.precision, outcome.recall) == (base.precision, base.recall)


def three_heading_manuals() -> dict[str, ManualEntry]:
    return {
        "8501": ManualEntry("8501", ("electric motors and generators", "rotary converters")),
        "8528": ManualEntry("8528", ("monitors and projectors", "television reception apparatus")),
        "8541": ManualEntry(
            "8541", ("semiconductor devices and diodes", "photovoltaic cells in panels")
        ),
    }


class TestWordMatchingBaseline:
    def test_full_overlap_scores_one(self):
        ranked = word_matching_baseline("photovoltaic cells panels", three_heading_manuals())
        assert ranked[0] == ("8541", 1.0)

    def test_empty_keyword_set_ranks_by_heading(self):
        ranked = word_matching_baseline("the of and", three_heading_manuals())
        assert [h for h, _ in ranked] == ["8501", "8528", "8541"]
        assert all(score == 0.0 for _, score in ranked)

    def test_hand_counted_overlaps(self):
        # 4 content tokens; 8528 matches 2 (monitors, television), 8541 matches 1 (diodes).
        description = "television monitors with diodes and widgets"
        ranked = word_matching_baseline(description, three_heading_manuals())
        scores = dict(ranked)
        assert scores["8528"] == pytest.approx(2 / 4)
        assert scores["8541"] == pytest.approx(1 / 4)
        assert scores["8501"] == 0.0
        assert [h for h, _ in ranked] == ["8528", "8541", "8501"]

    def test_scores_within_unit_interval(self):
        ranked = word_matching_baseline("motors projectors diodes", three_heading_manuals())
        assert all(0.0 <= score <= 1.0 for _, score in ranked)

    def test_empty_manuals(self):
        with pytest.raises(EmptyInput):
            word_matching_baseline("anything", {})

    @pytest.mark.parametrize("seed", range(20))
    def test_ranks_like_the_set_intersection_reference(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(25)] + ["the", "and", "of"]
        manuals = {}
        for _ in range(rng.randint(1, 12)):
            heading = f"{rng.randint(1000, 9999)}"
            sentences = tuple(
                " ".join(rng.choices(vocab, k=rng.randint(0, 8))) or "--"
                for _ in range(rng.randint(1, 4))
            )
            manuals[heading] = ManualEntry(heading, sentences)
        for _ in range(20):
            words = rng.choices(vocab + ["zz", "qq"], k=rng.randint(0, 12))
            description = " ".join(words)
            got = word_matching_baseline(description, manuals)
            assert got == word_matching_reference(description, manuals)
            assert all(type(score) is float for _, score in got)
