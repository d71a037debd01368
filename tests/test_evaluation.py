from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance
from oracles import oracle_metrics
from rexgot.dataset import Corpus
from rexgot.evaluation import (
    EmptyInput,
    EvalReport,
    MissingPrediction,
    UnknownInstance,
    compare_report,
    evaluate,
    exact_match,
    macro_f1,
    write_report_files,
)
from rexgot.model import Prediction, Strategy


def test_exact_match_strict_equality():
    assert exact_match({0, 1, 4}, {0, 1, 4}) == 1
    assert exact_match({0, 1}, {0, 1, 4}) == 0
    assert exact_match({0}, {0}) == 1


def test_macro_f1_perfect_predictions():
    pairs = [({0, 1}, {0, 1}, 4), ({2}, {2}, 3)]
    assert macro_f1(pairs) == 1.0


def test_macro_f1_hand_enumerated_half():
    # m=4, gold {0,1}, pred {0,2}: binary samples are TP (option 0),
    # FN (option 1), FP (option 2), TN (option 3), so both class F1s are
    # 2*1/(2*1+1+1) = 0.5 and the macro is 0.5. Frozen by hand enumeration.
    assert macro_f1([({0, 2}, {0, 1}, 4)]) == pytest.approx(0.5, abs=1e-12)


def test_macro_f1_total_inversion_is_zero():
    pairs = [({2, 3}, {0, 1}, 4), ({0}, {1}, 2)]
    assert macro_f1(pairs) == 0.0


def test_macro_f1_empty_input():
    with pytest.raises(EmptyInput):
        macro_f1([])


def test_macro_f1_matches_oracle_on_random_pairs():
    rng = random.Random(3)
    pairs = []
    for _ in range(300):
        m = rng.randint(2, 6)
        gold = set(rng.sample(range(m), rng.randint(1, m)))
        pred = set(rng.sample(range(m), rng.randint(1, m)))
        pairs.append((pred, gold, m))
    expected_macro, _ = oracle_metrics(pairs)
    assert macro_f1(pairs) == pytest.approx(expected_macro, abs=1e-9)


@given(st.data())
def test_macro_f1_matches_oracle_property(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    pairs = []
    for _ in range(n):
        m = data.draw(st.integers(min_value=2, max_value=6))
        gold = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
        pred = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
        pairs.append((pred, gold, m))
    expected_macro, _ = oracle_metrics(pairs)
    assert macro_f1(pairs) == pytest.approx(expected_macro, abs=1e-9)


def build_corpus_and_predictions(seed=0, size=20, strategy=Strategy.STANDARD):
    rng = random.Random(seed)
    instances = []
    predictions = []
    for k in range(size):
        m = rng.randint(2, 6)
        gold = tuple(rng.sample(range(m), rng.randint(1, m)))
        instance = make_instance(f"i{k:03d}", m=m, gold=gold)
        instances.append(instance)
        pred = frozenset(rng.sample(range(m), rng.randint(1, m)))
        predictions.append(
            Prediction(instance_id=instance.id, strategy=strategy, chosen=pred)
        )
    return Corpus(name=f"toy{seed}", instances=tuple(instances)), predictions


def test_evaluate_matches_oracle():
    corpus, predictions = build_corpus_and_predictions(seed=5)
    report = evaluate(predictions, corpus)
    items = [
        (p.chosen, corpus.by_id()[p.instance_id].gold, corpus.by_id()[p.instance_id].m)
        for p in predictions
    ]
    expected_macro, expected_em = oracle_metrics(items)
    assert report.macro_f1 == pytest.approx(expected_macro, abs=1e-9)
    assert report.exact_match == pytest.approx(expected_em, abs=1e-9)
    assert report.n_instances == len(predictions)


def test_evaluate_perfect_predictions_all_buckets_one():
    corpus, _ = build_corpus_and_predictions(seed=9)
    predictions = [
        Prediction(instance_id=i.id, strategy=Strategy.COT, chosen=i.gold)
        for i in corpus.instances
    ]
    report = evaluate(predictions, corpus)
    assert report.macro_f1 == 1.0
    assert report.exact_match == 1.0
    for bucket in report.by_gold_count.values():
        assert bucket.macro_f1 == 1.0
        assert bucket.em == 1.0


def test_evaluate_permutation_invariant():
    corpus, predictions = build_corpus_and_predictions(seed=2)
    report_a = evaluate(predictions, corpus)
    shuffled = list(predictions)
    random.Random(1).shuffle(shuffled)
    report_b = evaluate(shuffled, corpus)
    assert report_a == report_b


def test_evaluate_missing_prediction():
    corpus, predictions = build_corpus_and_predictions(seed=1, size=4)
    with pytest.raises(MissingPrediction) as err:
        evaluate(predictions[:-1], corpus)
    assert "i003" in str(err.value)


def test_evaluate_unknown_instance():
    corpus, predictions = build_corpus_and_predictions(seed=1, size=4)
    stray = Prediction(instance_id="ghost", strategy=Strategy.STANDARD, chosen=frozenset({0}))
    with pytest.raises(UnknownInstance):
        evaluate(predictions + [stray], corpus)


def test_evaluate_refuses_predictions_of_two_strategies():
    corpus, predictions = build_corpus_and_predictions(seed=1, size=2)
    mixed = [predictions[0], dataclasses.replace(predictions[1], strategy=Strategy.COT)]
    with pytest.raises(ValueError, match="more than one strategy: cot, standard"):
        evaluate(mixed, corpus)


def test_evaluate_empty_corpus_raises_empty_input():
    with pytest.raises(EmptyInput):
        evaluate([], Corpus(name="empty", instances=()))


def test_evaluate_duplicate_ids_hit_both_coverage_errors():
    corpus, predictions = build_corpus_and_predictions(seed=1, size=4)
    duplicated = predictions[:-1] + [predictions[0]]
    with pytest.raises(UnknownInstance) as err:
        evaluate(duplicated, corpus)
    assert "i000" in str(err.value)
    # Dropping the duplicate exposes the uncovered instance instead.
    with pytest.raises(MissingPrediction):
        evaluate(predictions[:-1], corpus)


def test_bucket_ems_weighted_by_size_reproduce_overall_exactly():
    for seed in range(8):
        corpus, predictions = build_corpus_and_predictions(seed=seed, size=30 + seed)
        report = evaluate(predictions, corpus)
        total = report.n_instances
        # Exact integer recovery: each bucket EM times its size must round
        # back to the bucket's correct-prediction count.
        correct = sum(round(b.em * b.n) for b in report.by_gold_count.values())
        assert correct == round(report.exact_match * total)
        recombined = sum(b.em * b.n for b in report.by_gold_count.values()) / total
        assert math.isclose(recombined, report.exact_match, rel_tol=0, abs_tol=1e-12)


def test_bucket_sizes_sum_to_instance_count():
    corpus, predictions = build_corpus_and_predictions(seed=4)
    report = evaluate(predictions, corpus)
    assert sum(b.n for b in report.by_gold_count.values()) == report.n_instances


def test_report_json_round_trip():
    corpus, predictions = build_corpus_and_predictions(seed=6)
    report = evaluate(predictions, corpus, config_fingerprint="abc123")
    restored = EvalReport.from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert restored == report


def test_compare_two_reports_sorted_rows():
    corpus, predictions = build_corpus_and_predictions(seed=7, strategy=Strategy.STANDARD)
    report_std = evaluate(predictions, corpus)
    predictions_cot = [
        Prediction(instance_id=p.instance_id, strategy=Strategy.COT, chosen=p.chosen)
        for p in predictions
    ]
    report_cot = evaluate(predictions_cot, corpus)
    table = compare_report([report_std, report_cot])
    assert [row[0] for row in table.rows] == ["cot", "standard"]


def test_compare_output_independent_of_input_order():
    corpus, predictions = build_corpus_and_predictions(seed=7)
    report_a = evaluate(predictions, corpus)
    predictions_b = [
        Prediction(instance_id=p.instance_id, strategy=Strategy.BACKWARD, chosen=p.chosen)
        for p in predictions
    ]
    report_b = evaluate(predictions_b, corpus)
    assert compare_report([report_a, report_b]).to_text() == compare_report(
        [report_b, report_a]
    ).to_text()


def test_compare_reports_across_corpora_column_groups():
    corpus_a, predictions_a = build_corpus_and_predictions(seed=11)
    corpus_b, predictions_b = build_corpus_and_predictions(seed=12)
    report_a = evaluate(predictions_a, corpus_a)
    report_b = evaluate(predictions_b, corpus_b)
    table = compare_report([report_a, report_b])
    assert table.corpora == ("toy11", "toy12")
    text = table.to_text()
    assert "toy11/F1" in text and "toy12/EM" in text
    assert "-" in text  # missing (strategy, corpus) cells render as dashes


def test_compare_values_formatted_two_decimals():
    corpus, predictions = build_corpus_and_predictions(seed=13)
    table = compare_report([evaluate(predictions, corpus)])
    row_values = table.to_text().splitlines()[2].split()
    assert all("." in v and len(v.split(".")[1]) == 2 for v in row_values[1:])


def test_write_report_files(tmp_path):
    corpus, predictions = build_corpus_and_predictions(seed=8)
    report = evaluate(predictions, corpus, config_fingerprint="fp")
    write_report_files(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config_fingerprint"] == "fp"
    text = (tmp_path / "report.txt").read_text()
    assert "by gold count:" in text
    csv_lines = (tmp_path / "by_gold_count.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "gold_count,n,macro_f1,em"
    assert len(csv_lines) == 1 + len(report.by_gold_count)
