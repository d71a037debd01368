from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import format_answer_line
from rexgot.model import index_to_letter
from rexgot.parsing import (
    EmptySet,
    ExclusionResult,
    Unparseable,
    Verdict,
    parse_exclusions,
    parse_final_set,
    parse_pick,
    parse_verdict,
)

LETTERS = "ABCDEF"


# --- templated fixture generators (the oracle is the generating label set) ---

EXCLUSION_TEMPLATES = [
    lambda ls: "I think we can rule some out.\nExcluded: " + ", ".join(ls),
    lambda ls: "After reading the dialogue carefully.\nexcluded: " + " and ".join(ls),
    lambda ls: " ".join(f"Option {l} is unreasonable because it contradicts the context." for l in ls),
    lambda ls: " ".join(f"({l}) is incorrect here." for l in ls),
    lambda ls: "Some choices do not fit. " + " ".join(f"{l}. does not match the speaker intent." for l in ls),
]

VERDICT_TEMPLATES_REASONABLE = [
    lambda: "The option matches the context well.\nVerdict: reasonable",
    lambda: "This is reasonable because the speaker said exactly that.",
    lambda: "Given the clues, it is reasonable.\nVERDICT: Reasonable",
]
VERDICT_TEMPLATES_UNREASONABLE = [
    lambda: "The option contradicts the dialogue.\nVerdict: unreasonable",
    lambda: "This is not reasonable because nothing supports it.",
    lambda: "It conflicts with the stated facts, so it is unreasonable.",
    lambda: "Considering everything, Verdict: not reasonable",
]

ANSWER_TEMPLATES = [
    lambda ls: "Thinking it through.\nAnswer: " + ", ".join(ls),
    lambda ls: "Answer: " + " and ".join(ls),
    lambda ls: "The correct options are " + ", ".join(f"{l}." for l in ls),
    lambda ls: "After analysis these are reasonable: " + " ".join(f"({l})" for l in ls),
]


def test_exclusion_directive_line():
    result = parse_exclusions("C and D look wrong to me.\nExcluded: C, D", m=5)
    assert result.excluded == frozenset({2, 3})


def test_exclusion_explicit_none():
    result = parse_exclusions("Everything seems plausible.\nExcluded: none", m=5)
    assert result.excluded == frozenset()


def test_exclusion_prose_fallback():
    text = "Option B is unreasonable because the speaker already left."
    result = parse_exclusions(text, m=4)
    assert result.excluded == frozenset({1})
    assert result.raw_text == text


def test_exclusion_directive_wins_and_reasons_stay_in_raw_text():
    text = (
        "Option C is unreasonable because Bob was at work. "
        "Option B is incorrect because nothing supports it.\nExcluded: C, D"
    )
    result = parse_exclusions(text, m=5)
    assert result.excluded == frozenset({2, 3})
    assert result.raw_text == text
    assert not result.parse_failed


def test_exclusion_letters_beyond_m_ignored():
    result = parse_exclusions("Excluded: C, D, Z", m=4)
    assert result.excluded == frozenset({2, 3})


def test_exclusion_unparseable():
    with pytest.raises(Unparseable):
        parse_exclusions("The weather is nice today.", m=4)


def test_exclusion_bare_none_in_prose():
    result = parse_exclusions("I found none of the options implausible.", m=4)
    assert result.excluded == frozenset()


def test_exclusion_templated_recovery_20_cases():
    rng = random.Random(7)
    cases = 0
    while cases < 20:
        m = rng.randint(3, 6)
        size = rng.randint(1, m - 1)
        indices = sorted(rng.sample(range(m), size))
        letters = [index_to_letter(i) for i in indices]
        template = EXCLUSION_TEMPLATES[cases % len(EXCLUSION_TEMPLATES)]
        result = parse_exclusions(template(letters), m=m)
        assert result.excluded == frozenset(indices), template(letters)
        cases += 1


def test_verdict_directive_line():
    # The directive wins over prose that would read the other way.
    verdict = parse_verdict("This looks reasonable at first.\nVerdict: unreasonable")
    assert verdict is Verdict.UNREASONABLE


def test_verdict_negation_rule():
    verdict = parse_verdict("This is not reasonable because nothing supports it.")
    assert verdict is Verdict.UNREASONABLE


def test_verdict_plain_reasonable_sentence():
    verdict = parse_verdict(
        "The timing matches. It is reasonable given the dialogue. More detail here."
    )
    assert verdict is Verdict.REASONABLE


def test_verdict_unparseable():
    with pytest.raises(Unparseable):
        parse_verdict("No committal statement at all.")


def test_verdict_templated_recovery_30_cases():
    cases = []
    for template in VERDICT_TEMPLATES_REASONABLE * 5:
        cases.append((template(), Verdict.REASONABLE))
    for template in VERDICT_TEMPLATES_UNREASONABLE * 4:
        cases.append((template(), Verdict.UNREASONABLE))
    assert len(cases) >= 30
    for text, expected in cases[:30]:
        assert parse_verdict(text) is expected, text


def test_final_set_directive():
    assert parse_final_set("Reasoning...\nAnswer: A, B, E", m=5) == frozenset({0, 1, 4})


def test_final_set_singleton():
    assert parse_final_set("Answer: A", m=5) == frozenset({0})


def test_final_set_explicit_none_is_empty():
    assert parse_final_set("Answer: none", m=5) == frozenset()


def test_final_set_prose_after_correct():
    assert parse_final_set("The correct options are (A) and (C).", m=4) == frozenset({0, 2})


def test_final_set_empty_set_error():
    with pytest.raises(EmptySet):
        parse_final_set("Answer: 42", m=4)


def test_final_set_correct_without_a_letter_after_it_is_empty():
    with pytest.raises(EmptySet, match="no valid letter after 'correct'"):
        parse_final_set("Option B is wrong; nothing after it is correct.", m=4)


def test_final_set_unparseable():
    with pytest.raises(Unparseable):
        parse_final_set("I have no idea what to say.", m=4)


def test_final_set_never_returns_indices_beyond_m():
    assert parse_final_set("Answer: A, D, F", m=4) == frozenset({0, 3})


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_round_trip_every_subset(m):
    universe = list(range(m))
    for size in range(m + 1):
        for subset in itertools.combinations(universe, size):
            line = format_answer_line(subset)
            assert parse_final_set(line, m) == frozenset(subset)


def test_templated_answer_recovery():
    rng = random.Random(11)
    for k in range(40):
        m = rng.randint(3, 6)
        size = rng.randint(1, m)
        indices = sorted(rng.sample(range(m), size))
        letters = [index_to_letter(i) for i in indices]
        template = ANSWER_TEMPLATES[k % len(ANSWER_TEMPLATES)]
        assert parse_final_set(template(letters), m) == frozenset(indices), template(letters)


def test_parse_pick_directive():
    pick, more = parse_pick("I choose the strongest option.\nPick: B\nMore: yes", m=4)
    assert pick == 1
    assert more is True


def test_parse_pick_stop():
    pick, more = parse_pick("Pick: A\nMore: no", m=4)
    assert (pick, more) == (0, False)


def test_parse_remove_directive():
    pick, more = parse_pick("Remove: C\nMore: no", m=5, verb="remove")
    assert (pick, more) == (2, False)


def test_parse_pick_unparseable():
    with pytest.raises(Unparseable):
        parse_pick("no letters here at all, sorry", m=4)


@given(st.text(max_size=400), st.integers(min_value=2, max_value=6))
def test_parsers_total_over_arbitrary_text(text, m):
    for call in (
        lambda: parse_exclusions(text, m),
        lambda: parse_verdict(text),
        lambda: parse_final_set(text, m),
        lambda: parse_pick(text, m),
    ):
        try:
            result = call()
        except (Unparseable, EmptySet):
            continue
        if isinstance(result, ExclusionResult):
            assert result.excluded <= set(range(m))
        elif isinstance(result, frozenset):
            assert result <= set(range(m))
