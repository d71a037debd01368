"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_instance,
    rex_script_entries,
    write_scripts_file,
)
from oracles import format_answer_line, oracle_metrics
from test_parsing import (
    EXCLUSION_TEMPLATES,
    VERDICT_TEMPLATES_REASONABLE,
    VERDICT_TEMPLATES_UNREASONABLE,
)
from test_reasoner import CountingWrapper, make_path, path_lists, verdict_options_into
from rexgot.backend import ScriptedBackend
from rexgot.cli import main
from rexgot.dataset import Corpus, save_corpus
from rexgot.evaluation import EvalReport, compare_report, evaluate
from rexgot.model import Prediction, Strategy, index_to_letter
from rexgot.parsing import (
    EmptySet,
    Unparseable,
    Verdict,
    parse_exclusions,
    parse_final_set,
    parse_verdict,
)
from rexgot.reasoner import (
    TieBreak,
    VoteKind,
    VotePolicy,
    build_graph,
    run_strategy,
    vote,
)

PASS = "ACCEPTANCE PASS"


# --- criterion 1: scripted end-to-end reproduction ---------------------------


def test_criterion_1_scripted_end_to_end(tmp_path, bob_movie_instance, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network use during an offline acceptance run")

    monkeypatch.setattr(socket, "socket", no_network)

    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(name="fig1", instances=(bob_movie_instance,)), corpus_path)
    scripts_path = write_scripts_file(
        tmp_path / "scripts.json", rex_script_entries(bob_movie_instance)
    )
    out_dir = tmp_path / "out"

    started = time.perf_counter()
    code = main([
        "run",
        "--corpus", str(corpus_path),
        "--strategy", "rex_got",
        "--backend", "scripted",
        "--scripts", str(scripts_path),
        "--out", str(out_dir),
    ])
    elapsed = time.perf_counter() - started

    assert code == 0
    prediction = json.loads((out_dir / "predictions.jsonl").read_text().splitlines()[0])
    assert prediction["chosen_labels"] == ["A", "B", "E"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["exact_match"] == 1.0
    assert report["macro_f1"] == 1.0
    assert elapsed < 1.0, f"end-to-end run took {elapsed:.3f}s"
    print(f"{PASS}: criterion 1 (scripted end-to-end run, {elapsed * 1000:.0f} ms)")


# --- criterion 2: metric oracle agreement -----------------------------------


def test_criterion_2_metric_oracle_agreement():
    rng = random.Random(2024)
    instances = []
    predictions = []
    for k in range(200):
        m = rng.randint(2, 6)
        gold = tuple(rng.sample(range(m), rng.randint(1, m)))
        instance = make_instance(f"toy{k:03d}", m=m, gold=gold)
        instances.append(instance)
        chosen = frozenset(rng.sample(range(m), rng.randint(1, m)))
        predictions.append(
            Prediction(instance_id=instance.id, strategy=Strategy.STANDARD, chosen=chosen)
        )
    corpus = Corpus(name="toy200", instances=tuple(instances))

    started = time.perf_counter()
    report = evaluate(predictions, corpus)
    elapsed = time.perf_counter() - started

    by_id = corpus.by_id()
    items = [(p.chosen, by_id[p.instance_id].gold, by_id[p.instance_id].m) for p in predictions]
    oracle_macro, oracle_em = oracle_metrics(items)
    assert abs(report.macro_f1 - oracle_macro) < 1e-9
    assert abs(report.exact_match - oracle_em) < 1e-9
    assert elapsed < 5.0
    print(f"{PASS}: criterion 2 (200-instance oracle agreement within 1e-9)")


# --- criterion 3: voting properties, >= 1000 random cases each --------------

POLICIES = [VotePolicy(kind, tie) for kind in VoteKind for tie in TieBreak]


@settings(max_examples=1000, deadline=None)
@given(paths=path_lists(), data=st.data())
def test_criterion_3a_vote_permutation_invariance(paths, data):
    permuted = data.draw(st.permutations(paths))
    for policy in POLICIES:
        assert vote(paths, policy) == vote(permuted, policy)


@settings(max_examples=1000, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_criterion_3b_vote_unanimity_recovery(m, k, data):
    common = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
    paths = [make_path(i, common, m) for i in range(k)]
    for policy in POLICIES:
        chosen, _ = vote(paths, policy)
        assert chosen == frozenset(common)


@settings(max_examples=1000, deadline=None)
@given(paths=path_lists(), data=st.data())
def test_criterion_3c_vote_majority_monotone(paths, data):
    for tie in TieBreak:
        policy = VotePolicy(VoteKind.PER_OPTION_MAJORITY, tie)
        chosen, _ = vote(paths, policy)
        m = paths[0].m
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
        grown = list(paths) + [make_path(len(paths), frozenset(chosen) | extra, m)]
        grown_chosen, _ = vote(grown, policy)
        assert chosen <= grown_chosen


@settings(max_examples=1000, deadline=None)
@given(paths=path_lists())
def test_criterion_3d_vote_never_empty_even_all_degenerate(paths):
    all_degenerate = [
        make_path(p.path_id, p.a3, p.m, degenerate=True) for p in paths
    ]
    for policy in POLICIES:
        for candidate in (paths, all_degenerate):
            chosen, _ = vote(candidate, policy)
            assert chosen


def test_criterion_3_summary():
    print(f"{PASS}: criterion 3 (4 voting properties x 1000 random cases)")


# --- criterion 4: parser round-trip, fixtures, fuzzing -----------------------


def test_criterion_4_parser_round_trip_and_fuzz():
    # Round-trip: every subset for every m in 2..6, empty set included.
    for m in range(2, 7):
        for size in range(m + 1):
            for subset in itertools.combinations(range(m), size):
                assert parse_final_set(format_answer_line(subset), m) == frozenset(subset)

    # Templated fixture corpora recover 100% of generating labels.
    rng = random.Random(41)
    for case in range(60):
        m = rng.randint(3, 6)
        indices = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
        letters = [index_to_letter(i) for i in indices]
        template = EXCLUSION_TEMPLATES[case % len(EXCLUSION_TEMPLATES)]
        assert parse_exclusions(template(letters), m).excluded == frozenset(indices)
    verdict_cases = [(t(), Verdict.REASONABLE) for t in VERDICT_TEMPLATES_REASONABLE * 10]
    verdict_cases += [(t(), Verdict.UNREASONABLE) for t in VERDICT_TEMPLATES_UNREASONABLE * 10]
    for text, expected in verdict_cases:
        assert parse_verdict(text) is expected

    # 10k random UTF-8 inputs: typed errors only, never crashes, indices < m.
    rng = random.Random(97)
    for i in range(10_000):
        length = rng.randint(0, 120)
        chars = []
        for _ in range(length):
            cp = rng.randint(1, 0x10FFFF)
            if 0xD800 <= cp <= 0xDFFF:
                cp = rng.randint(32, 126)
            chars.append(chr(cp))
        text = "".join(chars)
        m = rng.randint(2, 6)
        try:
            result = parse_exclusions(text, m)
            assert result.excluded <= set(range(m))
        except (Unparseable, EmptySet):
            pass
        try:
            parse_verdict(text)
        except (Unparseable, EmptySet):
            pass
        try:
            final = parse_final_set(text, m)
            assert final <= set(range(m))
        except (Unparseable, EmptySet):
            pass
    print(f"{PASS}: criterion 4 (round-trip all subsets, 100% fixture recovery, 10k fuzz)")


# --- criterion 5: byte-identical replay determinism --------------------------

COMBO_RESPONSE = (
    "Option A stays plausible throughout the dialogue.\n"
    "Excluded: none\n"
    "Verdict: reasonable\n"
    "Answer: A"
)


def _write_toy_corpus(tmp_path, size=8, name="toy"):
    rng = random.Random(13)
    instances = tuple(
        make_instance(
            f"{name}{k}", m=rng.randint(3, 5), gold=tuple({k % 3, (k + 1) % 3}), n_turns=3
        )
        for k in range(size)
    )
    path = tmp_path / f"{name}.jsonl"
    save_corpus(Corpus(name=name, instances=instances), path)
    return path


def test_criterion_5_replay_determinism_with_workers(tmp_path):
    corpus_path = _write_toy_corpus(tmp_path)
    scripts_path = write_scripts_file(tmp_path / "s.json", [], default=[COMBO_RESPONSE])
    cache_dir = tmp_path / "cache"
    base = [
        "--strategy", "rex_got", "--backend", "scripted", "--scripts", str(scripts_path),
        "--cache-dir", str(cache_dir),
    ]
    assert main(["run", "--corpus", str(corpus_path), *base,
                 "--cache-mode", "record", "--out", str(tmp_path / "rec")]) == 0

    snapshots = []
    for name in ("rep1", "rep2"):
        assert main([
            "run", "--corpus", str(corpus_path), *base,
            "--cache-mode", "replay", "--workers", "4", "--out", str(tmp_path / name),
        ]) == 0
        snapshots.append(
            (
                (tmp_path / name / "predictions.jsonl").read_bytes(),
                (tmp_path / name / "report.json").read_bytes(),
            )
        )
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][0] == (tmp_path / "rec" / "predictions.jsonl").read_bytes()
    print(f"{PASS}: criterion 5 (byte-identical replay runs, workers=4)")


# --- criterion 6: graph shape ------------------------------------------------


def test_criterion_6_graph_shape_random_m_k():
    rng = random.Random(6)
    for _ in range(200):
        m = rng.randint(2, 6)
        k = rng.randint(1, 5)
        instance = make_instance(f"g{m}{k}", m=m)
        paths = [
            make_path(pid, set(rng.sample(range(m), rng.randint(0, m))), m)
            for pid in range(k)
        ]
        graph = build_graph(instance, paths)
        assert len(graph["nodes"]) == 1 + m + k * (m + 2)
        for path in paths:
            touched = verdict_options_into(graph, f"path{path.path_id}:answer")
            assert touched == list(range(m))
    print(f"{PASS}: criterion 6 (node count 1 + m + K*(m+2) and per-path traversal)")


# --- criterion 7: strategy harness completeness ------------------------------

STRATEGY_DEFAULTS = {
    "standard": COMBO_RESPONSE,
    "cot": COMBO_RESPONSE,
    "rex_got": COMBO_RESPONSE,
    "forward": "Pick: A\nMore: no",
    "backward": "Remove: B\nMore: no",
}


def test_criterion_7_all_five_strategies_and_compare(tmp_path, capsys):
    corpus_path = _write_toy_corpus(tmp_path, size=4, name="five")
    report_paths = []
    for strategy, default in STRATEGY_DEFAULTS.items():
        scripts_path = write_scripts_file(
            tmp_path / f"scripts-{strategy}.json", [], default=[default]
        )
        out_dir = tmp_path / f"out-{strategy}"
        code = main([
            "run", "--corpus", str(corpus_path), "--strategy", strategy,
            "--backend", "scripted", "--scripts", str(scripts_path),
            "--out", str(out_dir),
        ])
        assert code == 0, strategy
        report_paths.append(out_dir / "report.json")

    reports = [EvalReport.from_json_dict(json.loads(p.read_text())) for p in report_paths]
    table = compare_report(reports)
    assert [row[0] for row in table.rows] == sorted(STRATEGY_DEFAULTS)
    assert main(["compare", *[str(p) for p in report_paths]]) == 0
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith(("strategy", "-"))
    ]
    assert len(lines) == 5

    # Adversarial scripts that never emit the stop directive must still
    # terminate within m loop iterations.
    instance = make_instance("adversarial", m=5, gold=(0,))
    for strategy, response in (
        (Strategy.FORWARD, "Pick: A\nMore: yes"),
        (Strategy.BACKWARD, "Remove: B\nMore: yes"),
    ):
        wrapper = CountingWrapper(ScriptedBackend(default_responses=[response]))
        prediction = run_strategy(instance, strategy, wrapper)
        assert prediction.chosen
        assert len(wrapper.requests) <= instance.m
    print(f"{PASS}: criterion 7 (five strategies complete; loops capped at m)")


# --- criterion 8: breakdown consistency ---------------------------------------


def test_criterion_8_bucket_em_recombines_exactly():
    for seed in range(12):
        rng = random.Random(seed)
        instances = []
        predictions = []
        for k in range(rng.randint(20, 60)):
            m = rng.randint(2, 6)
            gold = tuple(rng.sample(range(m), rng.randint(1, m)))
            instance = make_instance(f"b{seed}-{k}", m=m, gold=gold)
            instances.append(instance)
            predictions.append(
                Prediction(
                    instance_id=instance.id,
                    strategy=Strategy.COT,
                    chosen=frozenset(rng.sample(range(m), rng.randint(1, m))),
                )
            )
        corpus = Corpus(name=f"bucket{seed}", instances=tuple(instances))
        report = evaluate(predictions, corpus)
        # Exact recombination, checked at the integer count level: each
        # bucket EM times its size recovers that bucket's hit count.
        bucket_hits = sum(round(b.em * b.n) for b in report.by_gold_count.values())
        overall_hits = round(report.exact_match * report.n_instances)
        assert bucket_hits == overall_hits
        weighted = sum(b.em * b.n for b in report.by_gold_count.values()) / report.n_instances
        assert math.isclose(weighted, report.exact_match, rel_tol=0, abs_tol=1e-12)
    print(f"{PASS}: criterion 8 (bucket EMs recombine to the overall EM exactly)")
