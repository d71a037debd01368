from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_instance
from oracles import oracle_distinct_dialogues
from rexgot.dataset import (
    Corpus,
    MalformedLine,
    UnknownFormat,
    ValidationFailed,
    corpus_stats,
    filter_multi,
    load_corpus,
    save_corpus,
)
from rexgot.model import RexGotError, ValidationError
from rexgot.prompts import PromptKind, render_prompt


def canonical_record(instance_id="c1", answers=(0,), m=4):
    return {
        "id": instance_id,
        "dialogue": [
            {"speaker": "A", "text": "hello there"},
            {"speaker": "B", "text": "hi, what is up?"},
        ],
        "target_index": 0,
        "question": "What might happen next?",
        "options": [f"outcome {i}" for i in range(m)],
        "answers": list(answers),
    }


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    return path


def test_load_three_valid_lines(tmp_path):
    path = write_lines(
        tmp_path / "c.jsonl",
        [canonical_record(f"c{i}") for i in range(3)],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.name == "c"
    assert corpus.source_path == str(path)


def test_gold_index_equal_to_m_fails_with_line_number(tmp_path):
    records = [canonical_record("c1"), canonical_record("c2", answers=(4,))]
    path = write_lines(tmp_path / "c.jsonl", records)
    with pytest.raises(ValidationFailed) as err:
        load_corpus(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("target_index", 1.9, id="float_target"),
        pytest.param("target_index", "1", id="string_target"),
        pytest.param("target_index", True, id="bool_target"),
        pytest.param("answers", [1.5, True], id="float_and_bool_answers"),
        pytest.param("answers", [1.0], id="whole_float_answer"),
        pytest.param("answers", ["0"], id="string_answer"),
    ],
)
def test_non_integer_index_fails_with_line_number(tmp_path, field, value):
    records = [canonical_record("c1"), {**canonical_record("c2"), field: value}]
    path = write_lines(tmp_path / "c.jsonl", records)
    with pytest.raises(ValidationFailed, match=f"line 2: {field} must hold integers") as err:
        load_corpus(path)
    assert err.value.line_no == 2


def test_malformed_json_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(canonical_record()) + "\n{not json\n", "utf-8")
    with pytest.raises(MalformedLine) as err:
        load_corpus(path)
    assert err.value.line_no == 2


VALID_LINE = json.dumps(canonical_record("c1")).encode("utf-8")
FIRST_TURN = b'{"speaker": "A", "text": "hello there"}'


@pytest.mark.parametrize(
    "line, error, message",
    [
        pytest.param(
            VALID_LINE.replace(b"c1", b"c\xff"), MalformedLine,
            "not UTF-8 (invalid start byte at byte 9)", id="not_utf8",
        ),
        pytest.param(
            b"[" * 100_000 + b"]" * 100_000, MalformedLine,
            "invalid JSON (maximum recursion depth", id="deep_nesting",
        ),
        pytest.param(
            VALID_LINE.replace(b'"target_index": 0', b'"target_index": ' + b"1" * 5000),
            MalformedLine, "invalid JSON (Exceeds the limit", id="long_integer",
        ),
        pytest.param(
            VALID_LINE.replace(FIRST_TURN, b'"A: hi"'), ValidationFailed,
            "dialogue turns must be objects, got 'A: hi'", id="turn_not_an_object",
        ),
        pytest.param(
            VALID_LINE[:-1] + b', "inference_type": ["cause"]}', ValidationFailed,
            "inference_type must be a string, got ['cause']", id="inference_type_not_a_string",
        ),
        pytest.param(
            VALID_LINE.replace(b"What might", b"What\\udcff might"), ValidationFailed,
            "instance 'c1': question holds a lone surrogate", id="lone_surrogate",
        ),
        pytest.param(
            VALID_LINE.replace(b'"c1"', b"5"), ValidationFailed,
            "id must be a string, got 5", id="id_not_a_string",
        ),
        pytest.param(
            VALID_LINE.replace(b'"What might happen next?"', b"null"), ValidationFailed,
            "question must be a string, got None", id="question_null",
        ),
        pytest.param(
            VALID_LINE.replace(b'"outcome 1"', b"1"), ValidationFailed,
            "each option must be a string, got 1", id="option_not_a_string",
        ),
        pytest.param(
            re.sub(rb'"options": \[[^]]*\]', b'"options": "AB"', VALID_LINE), ValidationFailed,
            "options must be a list, got 'AB'", id="options_a_string",
        ),
        pytest.param(
            re.sub(rb'"answers": \[[^]]*\]', b'"answers": 0', VALID_LINE), ValidationFailed,
            "answers must be a list, got 0", id="answers_not_a_list",
        ),
        pytest.param(
            VALID_LINE.replace(FIRST_TURN, b'{"speaker": null, "text": "hello there"}'),
            ValidationFailed, "a turn's speaker must be a string, got None", id="speaker_null",
        ),
        pytest.param(
            VALID_LINE.replace(FIRST_TURN, b'{"speaker": "A", "text": 7}'), ValidationFailed,
            "a turn's text must be a string, got 7", id="text_not_a_string",
        ),
        pytest.param(
            re.sub(rb'"dialogue": \[[^]]*\]', b'"dialogue": 0', VALID_LINE), ValidationFailed,
            "dialogue must be a list, got 0", id="dialogue_a_number",
        ),
        pytest.param(
            re.sub(rb'"dialogue": \[[^]]*\]', b'"dialogue": "hi"', VALID_LINE),
            ValidationFailed, "dialogue must be a list, got 'hi'", id="dialogue_a_string",
        ),
        pytest.param(
            VALID_LINE.replace(FIRST_TURN, b'{"speaker": "A"}'), ValidationFailed,
            "dialogue turn {'speaker': 'A'} has no text", id="turn_without_text",
        ),
        pytest.param(b"[" + VALID_LINE + b"]", MalformedLine, "expected a JSON object",
                     id="json_not_an_object"),
        pytest.param(
            VALID_LINE.replace(b'"c1"', b'""'), ValidationFailed, "instance id is empty",
            id="id_empty",
        ),
        pytest.param(
            re.sub(rb'"dialogue": \[[^]]*\]', b'"dialogue": []', VALID_LINE), ValidationFailed,
            "dialogue has no turns", id="dialogue_empty",
        ),
        pytest.param(
            VALID_LINE.replace(b'"What might happen next?"', b'"  "'), ValidationFailed,
            "instance c1: question is empty", id="question_blank",
        ),
    ],
)
def test_bad_line_fails_naming_file_and_line(tmp_path, line, error, message):
    path = tmp_path / "c.jsonl"
    path.write_bytes(json.dumps(canonical_record("c0")).encode("utf-8") + b"\n" + line + b"\n")
    with pytest.raises(error) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}, line 2: {message}")
    assert err.value.line_no == 2


DELETE = object()
# Ids that are paths, and text with a low surrogate that no high one precedes,
# which json.dumps writes as a lone \udXXX escape.
BAD_STRINGS = st.sampled_from(["a/b", "../c2", "..", ".", "c\0"]) | st.integers(
    0xDC00, 0xDFFF
).map(lambda c: f"q{chr(c)}?")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 30) | st.floats() | st.text(max_size=6)
    | BAD_STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def mutated_lines(draw):
    """A canonical record's line with one field replaced or deleted, and maybe a few bytes."""
    record = {**canonical_record("c2"), "inference_type": "cause"}
    fields = [(record, key) for key in record]
    fields += [(record["dialogue"], 0), (record["dialogue"][0], "speaker"),
               (record["dialogue"][0], "text"), (record["options"], 0), (record["answers"], 0)]
    container, key = draw(st.sampled_from(fields))
    value = draw(st.just(DELETE) | BAD_STRINGS | JSON_VALUES)
    if value is DELETE:
        del container[key]
    else:
        container[key] = value
    line = json.dumps(record).encode("utf-8")
    if draw(st.booleans()):
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(start + 2, len(line))))
        junk = draw(st.binary(max_size=2).filter(lambda b: b"\n" not in b))
        line = line[:start] + junk + line[end:]
    return line


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=mutated_lines())
def test_mutated_line_loads_or_fails_naming_its_line(tmp_path, line):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(json.dumps(canonical_record("c1")).encode("utf-8") + b"\n" + line + b"\n")
    try:
        corpus = load_corpus(path)
    except RexGotError as exc:
        assert str(exc).startswith(f"{path}, line 2: ")
    else:
        corpus_stats(corpus).to_json_dict()
        for instance in corpus.instances:
            texts = [instance.id, instance.question, instance.inference_type or ""]
            texts += instance.options
            texts += [s for turn in instance.dialogue for s in (turn.speaker, turn.text)]
            assert all(isinstance(text, str) for text in texts)
            for kind in PromptKind:
                render_prompt(instance, kind, a1="a1", a2={0: "a2"}, option_index=0).encode()


def test_unknown_format(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [canonical_record()])
    with pytest.raises(UnknownFormat):
        load_corpus(path, format="tsv")


def test_duplicate_ids_are_hard_errors(tmp_path):
    path = write_lines(tmp_path / "c.jsonl", [canonical_record("dup"), canonical_record("dup")])
    with pytest.raises(ValidationFailed) as err:
        load_corpus(path)
    assert "dup" in str(err.value)


def test_corpus_with_a_duplicate_id_rejected():
    with pytest.raises(ValidationError, match="corpus c: duplicate instance id 'dup'") as err:
        Corpus(name="c", instances=(make_instance("dup"), make_instance("dup")))
    assert err.value.field_name == "id"


def test_save_load_round_trip(tmp_path):
    instances = (
        make_instance("a", m=3, gold=(0, 2), inference_type="cause"),
        make_instance("b", m=5, gold=(1,)),
    )
    corpus = Corpus(name="round", instances=instances)
    path = tmp_path / "round.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path, name="round")
    assert loaded.instances == corpus.instances


def test_filter_multi_keeps_only_multi_gold():
    instances = tuple(
        make_instance(f"i{k}", m=5, gold=gold)
        for k, gold in enumerate([(0,), (0, 1), (2,), (0, 1, 2)])
    )
    corpus = Corpus(name="mix", instances=instances)
    filtered = filter_multi(corpus)
    assert [i.id for i in filtered.instances] == ["i1", "i3"]


def test_filter_multi_idempotent():
    instances = tuple(
        make_instance(f"i{k}", m=4, gold=gold) for k, gold in enumerate([(0,), (0, 1)])
    )
    corpus = Corpus(name="mix", instances=instances)
    once = filter_multi(corpus)
    twice = filter_multi(once)
    assert once.instances == twice.instances


def test_filter_multi_on_all_single_is_empty():
    corpus = Corpus(
        name="single", instances=tuple(make_instance(f"i{k}") for k in range(3))
    )
    assert len(filter_multi(corpus)) == 0


def test_filter_multi_fraction_matches_construction():
    # 15 of 100 instances carry multiple answers.
    instances = tuple(
        make_instance(f"i{k}", m=4, gold=(0, 1) if k < 15 else (0,)) for k in range(100)
    )
    filtered = filter_multi(Corpus(name="frac", instances=instances))
    assert len(filtered) / 100 == pytest.approx(0.15)


def test_stats_histogram_counts():
    instances = tuple(
        make_instance(f"i{k}", m=5, gold=gold)
        for k, gold in enumerate([(0,), (0, 1), (1, 2), (0, 1, 2, 3)])
    )
    stats = corpus_stats(Corpus(name="hist", instances=instances))
    assert stats.by_gold_count == {1: 1, 2: 2, 4: 1}
    assert sum(stats.by_gold_count.values()) == stats.total == 4


def test_stats_empty_corpus():
    stats = corpus_stats(Corpus(name="empty", instances=()))
    assert stats.total == 0
    assert stats.by_gold_count == {}
    assert stats.dialogue_count == 0


def test_stats_dialogue_count_matches_oracle():
    shared = make_instance("s1", n_turns=4)
    same_dialogue = tuple(
        make_instance(f"s{k}", n_turns=4) for k in range(1, 4)
    )  # three instances over one dialogue
    other = (make_instance("o1", n_turns=2, target_index=0),)
    instances = same_dialogue + other
    stats = corpus_stats(Corpus(name="dlg", instances=instances))
    assert stats.dialogue_count == oracle_distinct_dialogues(instances) == 2
    assert shared.dialogue == same_dialogue[0].dialogue


def test_stats_inference_type_counts():
    instances = (
        make_instance("t1", inference_type="cause"),
        make_instance("t2", inference_type="cause"),
        make_instance("t3"),
    )
    stats = corpus_stats(Corpus(name="types", instances=instances))
    assert stats.by_inference_type == {"cause": 2, "untyped": 1}


def release_record(instance_id="r1", answers=(2,), as_text=False):
    choices = ["stay home", "go to the park", "call a friend", "sleep early"]
    record = {
        "ID": instance_id,
        "Dialogue": ["A: It is sunny today.", "B: Let us do something outside."],
        "Target": "Let us do something outside.",
        "Question": "What will the speakers most plausibly do?",
        "Choices": choices,
        "Correct Answers": [choices[a] for a in answers] if as_text else list(answers),
    }
    return record


def test_release_adapter_index_answers(tmp_path):
    path = write_lines(tmp_path / "rel.jsonl", [release_record()])
    corpus = load_corpus(path, format="cicero_release")
    inst = corpus.instances[0]
    assert inst.gold == frozenset({2})
    assert inst.target_index == 1
    assert inst.dialogue[0].speaker == "A"


def test_release_adapter_turn_objects_load_as_speaker_lines(tmp_path):
    record = release_record()
    record["Dialogue"] = [
        {"speaker": "A", "text": "It is sunny today."},
        {"speaker": "B", "text": "Let us do something outside."},
    ]
    as_lines = load_corpus(write_lines(tmp_path / "lines.jsonl", [release_record()]),
                           format="cicero_release")
    as_objects = load_corpus(write_lines(tmp_path / "objects.jsonl", [record]),
                             format="cicero_release")
    assert as_objects.instances == as_lines.instances


def test_release_adapter_type_becomes_inference_type(tmp_path):
    record = {**release_record(), "Type": "cause"}
    corpus = load_corpus(write_lines(tmp_path / "rel.jsonl", [record]), format="cicero_release")
    assert corpus.instances[0].inference_type == "cause"


def test_release_adapter_text_answers_resolved(tmp_path):
    path = write_lines(tmp_path / "rel.jsonl", [release_record(answers=(1, 3), as_text=True)])
    corpus = load_corpus(path, format="cicero_release")
    assert corpus.instances[0].gold == frozenset({1, 3})


def test_release_adapter_stringified_index_list(tmp_path):
    record = release_record()
    record["Correct Answers"] = "[0, 2]"
    path = write_lines(tmp_path / "rel.jsonl", [record])
    corpus = load_corpus(path, format="cicero_release")
    assert corpus.instances[0].gold == frozenset({0, 2})


def test_release_adapter_unresolvable_text_is_hard_error(tmp_path):
    record = release_record()
    record["Correct Answers"] = ["something that is not an option"]
    path = write_lines(tmp_path / "rel.jsonl", [record])
    with pytest.raises(ValidationFailed):
        load_corpus(path, format="cicero_release")


def test_release_adapter_boolean_answer_is_hard_error(tmp_path):
    record = {**release_record(), "Correct Answers": [True]}
    path = write_lines(tmp_path / "rel.jsonl", [record])
    with pytest.raises(ValidationFailed, match="line 1: record r1: boolean answer True"):
        load_corpus(path, format="cicero_release")


def test_release_adapter_deeply_nested_answer_list_is_hard_error(tmp_path):
    record = release_record()
    record["Correct Answers"] = "[" * 100_000 + "]" * 100_000
    path = write_lines(tmp_path / "rel.jsonl", [release_record("r0"), record])
    with pytest.raises(ValidationFailed, match="line 2: maximum recursion depth") as err:
        load_corpus(path, format="cicero_release")
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "dialogue, message",
    [
        pytest.param(
            [{"speaker": "A"}, "B: Let us do something outside."],
            "record r1: dialogue turn {'speaker': 'A'} has no text", id="turn_without_text",
        ),
        pytest.param(0, "record r1: Dialogue must be a list, got 0", id="dialogue_a_number"),
    ],
)
def test_release_adapter_bad_dialogue_names_the_field(tmp_path, dialogue, message):
    record = {**release_record(), "Dialogue": dialogue}
    path = write_lines(tmp_path / "rel.jsonl", [release_record("r0"), record])
    with pytest.raises(ValidationFailed) as err:
        load_corpus(path, format="cicero_release")
    assert str(err.value) == f"{path}, line 2: {message}"


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param({"ID": 5}, "ID must be a string, got 5", id="id_a_number"),
        pytest.param(
            {"Dialogue": [{"speaker": None, "text": "hi"}]},
            "record r1: a turn's speaker must be a string, got None", id="speaker_null",
        ),
        pytest.param(
            {"Dialogue": [{"speaker": "A", "text": 7}]},
            "record r1: a turn's text must be a string, got 7", id="text_a_number",
        ),
        pytest.param(
            {"Dialogue": ["A: It is sunny today.", 3]},
            "record r1: each Dialogue turn must be a string, got 3", id="turn_a_number",
        ),
        pytest.param({"Target": 1}, "record r1: Target must be a string, got 1", id="target_a_number"),
        pytest.param(
            {"Question": None}, "record r1: Question must be a string, got None", id="question_null"
        ),
        pytest.param(
            {"Choices": ["stay home", None, "call a friend"]},
            "record r1: each choice must be a string, got None", id="choice_null",
        ),
        pytest.param(
            {"Choices": "ABCD"}, "record r1: Choices must be a list, got 'ABCD'",
            id="choices_a_string",
        ),
        pytest.param({"Type": 3}, "record r1: Type must be a string, got 3", id="type_a_number"),
        pytest.param(
            {"Correct Answers": None}, "record r1: unsupported answers value None",
            id="answers_null",
        ),
        pytest.param(
            {"ID": 5, "Question": None, "Choices": [1, None]}, "ID must be a string, got 5",
            id="id_question_and_choices",
        ),
    ],
)
def test_release_adapter_non_string_field_is_named(tmp_path, changes, message):
    record = {**release_record(), **changes}
    path = write_lines(tmp_path / "rel.jsonl", [release_record("r0"), record])
    with pytest.raises(ValidationFailed) as err:
        load_corpus(path, format="cicero_release")
    assert str(err.value) == f"{path}, line 2: {message}"


def test_release_adapter_multi_answer_file_is_all_multi(tmp_path):
    records = [release_record(f"v2-{k}", answers=(0, k % 3 + 1)) for k in range(6)]
    path = write_lines(tmp_path / "v2.jsonl", records)
    corpus = load_corpus(path, format="cicero_release")
    assert all(len(inst.gold) >= 2 for inst in corpus.instances)


@st.composite
def mutated_release_lines(draw):
    """A release record's line with one field, turn, choice or answer replaced or deleted."""
    record = release_record("r2", answers=(0, 2))
    fields = [(record, key) for key in record]
    fields += [(record["Dialogue"], 1), (record["Choices"], 0), (record["Correct Answers"], 0)]
    container, key = draw(st.sampled_from(fields))
    # Answers may come as numbers, edge values among them, or as a JSON list inside a string.
    numbers = st.sampled_from([math.inf, -math.inf, math.nan, 2.0, 0.5, -0.0]) | st.floats()
    numbers |= st.integers()
    value = draw(st.just(DELETE) | BAD_STRINGS | JSON_VALUES | numbers
                 | st.lists(numbers | JSON_VALUES, max_size=3).map(json.dumps))
    if value is DELETE:
        del container[key]
    else:
        container[key] = value
    return json.dumps(record).encode("utf-8")


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=mutated_release_lines())
def test_mutated_release_line_loads_or_fails_naming_its_line(tmp_path, line):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(json.dumps(release_record("r1")).encode("utf-8") + b"\n" + line + b"\n")
    try:
        corpus = load_corpus(path, format="cicero_release")
    except RexGotError as exc:
        assert str(exc).startswith(f"{path}, line 2: ")
    else:
        corpus_stats(corpus).to_json_dict()
