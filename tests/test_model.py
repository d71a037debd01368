from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance
from rexgot.model import (
    EmptyGold,
    EmptyOptions,
    GoldOutOfRange,
    TargetOutOfRange,
    Utterance,
    ValidationError,
    index_to_letter,
    letter_to_index,
    validate_instance,
)


def raw_record(**overrides):
    record = {
        "id": "r1",
        "dialogue": [
            {"speaker": "A", "text": "first turn"},
            {"speaker": "B", "text": "second turn"},
        ],
        "target_index": 1,
        "question": "What happened?",
        "options": ["one", "two", "three", "four", "five"],
        "answers": [0, 1, 4],
    }
    record.update(overrides)
    return record


def test_validate_wellformed_five_options():
    instance = validate_instance(raw_record())
    assert instance.m == 5
    assert instance.gold == frozenset({0, 1, 4})
    assert instance.target.text == "second turn"


def test_validate_accepts_a_tuple_of_utterances():
    dialogue = (Utterance(speaker="A", text="first turn"), Utterance(speaker="B", text="second turn"))
    instance = validate_instance(raw_record(dialogue=dialogue))
    assert instance.dialogue == dialogue
    assert instance == validate_instance(raw_record())


def test_empty_gold_rejected():
    with pytest.raises(EmptyGold) as err:
        validate_instance(raw_record(answers=[]))
    assert err.value.field_name == "gold"


@pytest.mark.parametrize("instance_id", ["a/b", "../escaped", "/abs", "..", ".", "nul\0"])
def test_id_that_is_not_one_file_name_rejected(instance_id):
    with pytest.raises(ValidationError, match="is not a single file name") as err:
        validate_instance(raw_record(id=instance_id))
    assert err.value.field_name == "id"


@pytest.mark.parametrize(
    "instance_id",
    ["b" * 251, "\u00e9" * 126, "\U0001f600" * 63],
    ids=["251-bytes-1-byte", "252-bytes-2-byte", "252-bytes-4-byte"],
)
def test_id_too_long_to_name_a_trace_file_rejected(instance_id):
    # <id>.json must fit a 255-byte file name; the limit counts UTF-8 bytes.
    with pytest.raises(ValidationError, match="is longer than 250 UTF-8 bytes") as err:
        validate_instance(raw_record(id=instance_id))
    assert err.value.field_name == "id"


@pytest.mark.parametrize(
    "instance_id",
    [
        "...", ".hidden", "a..b", "a\\b", "a b",
        pytest.param("b" * 250, id="250-bytes-1-byte"),
        pytest.param("\u00e9" * 125, id="250-bytes-2-byte"),
        pytest.param("\U0001f600" * 62, id="248-bytes-4-byte"),
    ],
)
def test_id_that_is_one_file_name_accepted(instance_id):
    assert validate_instance(raw_record(id=instance_id)).id == instance_id


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("id", {"id": "r\udcff"}),
        ("dialogue", {"dialogue": [{"speaker": "A\ud800", "text": "hi"}]}),
        ("question", {"question": "q\udcff?"}),
        ("options", {"options": ["one", "two\udfff"]}),
        ("inference_type", {"inference_type": "\udbff"}),
    ],
)
def test_lone_surrogate_in_any_text_rejected(field, overrides):
    record = raw_record(**overrides, target_index=0, answers=[0])
    with pytest.raises(ValidationError, match="holds a lone surrogate") as err:
        validate_instance(record)
    assert err.value.field_name == field


def test_astral_characters_accepted():
    assert validate_instance(raw_record(question="Why \U0001f600?")).question == "Why \U0001f600?"


def test_target_index_equal_to_n_rejected():
    with pytest.raises(TargetOutOfRange):
        validate_instance(raw_record(target_index=2))


def test_gold_out_of_range_rejected():
    with pytest.raises(GoldOutOfRange):
        validate_instance(raw_record(answers=[0, 5]))


def test_single_option_rejected():
    with pytest.raises(EmptyOptions):
        validate_instance(raw_record(options=["only"], answers=[0]))


def test_blank_option_rejected():
    with pytest.raises(EmptyOptions):
        validate_instance(raw_record(options=["one", "  "], answers=[0]))


def test_missing_field_names_the_field():
    record = raw_record()
    del record["question"]
    with pytest.raises(ValidationError) as err:
        validate_instance(record)
    assert err.value.field_name == "question"


def test_more_than_26_options_rejected():
    options = [f"o{i}" for i in range(27)]
    with pytest.raises(ValidationError):
        validate_instance(raw_record(options=options, answers=[0]))


def test_gold_may_cover_all_options():
    instance = validate_instance(raw_record(answers=[0, 1, 2, 3, 4]))
    assert instance.gold == frozenset(range(5))


def test_validate_is_idempotent():
    first = validate_instance(raw_record())
    second = validate_instance(first)
    assert first == second


def test_utterance_requires_text():
    with pytest.raises(ValidationError):
        Utterance(speaker="A", text="   ")


@given(st.integers(min_value=0, max_value=25))
def test_letter_bijection(index):
    assert letter_to_index(index_to_letter(index)) == index


def test_letter_to_index_case_insensitive():
    assert letter_to_index("c") == 2
    assert letter_to_index("C") == 2
    with pytest.raises(ValueError):
        letter_to_index("AB")


def _context(instance, kind, **kwargs):
    from rexgot.prompts import render_prompt

    return render_prompt(instance, kind, **kwargs).rsplit("\n\nGiven the context", 1)[0]


def test_context_stage_monotone():
    from rexgot.prompts import PromptKind

    instance = make_instance(m=3)
    base = _context(instance, PromptKind.STANDARD)
    extended = _context(instance, PromptKind.STEP2_VERDICT, a1="excluded text", option_index=0)
    full = _context(
        instance, PromptKind.STEP3_COMBINE, a1="excluded text", a2={0: "v0", 1: "v1", 2: "v2"}
    )
    # T1 is T plus the exclusion section; T2 is T1 plus the analyses section.
    assert extended == base + "\n\nExcluded options and reasons:\nexcluded text"
    assert full == extended + "\n\nOption analyses:\nA. v0\nB. v1\nC. v2"


def test_context_render_deterministic():
    from rexgot.prompts import PromptKind

    instance = make_instance()
    assert _context(instance, PromptKind.STANDARD) == _context(instance, PromptKind.STANDARD)


def test_prediction_chosen_must_be_nonempty():
    from rexgot.model import Prediction, Strategy

    with pytest.raises(ValidationError):
        Prediction(instance_id="x", strategy=Strategy.STANDARD, chosen=frozenset())
