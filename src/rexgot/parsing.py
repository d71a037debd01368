"""Extraction of structured judgments from free-form completion text.

Every parser tries a trailing directive line first ("Excluded:",
"Verdict:", "Answer:", "Pick:"/"Remove:") and only then falls back to
heuristics over the prose, so the harness stays usable with models that
ignore format instructions. Letter matching is case-insensitive and
tolerates "option C", "(C)", "C." and "C)". Parsers only read: each
result keeps the completion verbatim as ``raw_text``, and it is that text,
not anything parsed from it, that later prompts re-inject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .model import RexGotError, letter_to_index


class Unparseable(RexGotError):
    """No parse rule fired on the text."""


class EmptySet(RexGotError):
    """A parse rule fired but produced no valid option letter."""


@dataclass(frozen=True)
class ExclusionResult:
    """Options judged implausible in the exclusion step, and the text that says so.

    ``excluded`` may be empty. ``parse_failed`` marks the empty fallback
    recorded after a completion stayed unparseable through its retry.
    """

    excluded: frozenset[int]
    raw_text: str = ""
    parse_failed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "excluded", frozenset(self.excluded))


class Verdict(Enum):
    REASONABLE = "reasonable"
    UNREASONABLE = "unreasonable"
    ABSTAIN = "abstain"


@dataclass(frozen=True)
class OptionVerdict:
    """Per-option judgment from the analysis step, and the text that gives it.

    ABSTAIN is only recorded when the reply stayed unparseable (after its
    retry, when the step samples).
    """

    verdict: Verdict
    raw_text: str = ""


_NEGATIVE_PREDICATES = ("unreasonable", "incorrect", "excluded", "not")
_NEGATORS = re.compile(r"\b(?:not|never|no|isn'?t|aren'?t|hardly|n'?t)\b[\s\w,]{0,40}?\breasonable\b", re.IGNORECASE)
# Only split before an uppercase/parenthesised start so "D. does not fit"
# stays one sentence with its letter mention.
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9(\[\"'])")

# Tolerated letter mentions in free prose: "option C", "(C)", "C." / "C)",
# and bare uppercase singles (bare lowercase would collide with the article "a").
_PROSE_LETTER = re.compile(
    r"\boptions?\s+([A-Za-z])\b|\(([A-Za-z])\)|\b([A-Za-z])[.)]|\b([A-Z])\b"
)
# Inside a directive line's payload the context is constrained, so bare
# letters of either case count.
_DIRECTIVE_LETTER = re.compile(r"\boptions?\s+([A-Za-z])\b|\(([A-Za-z])\)|\b([A-Za-z])\b[.)]?")
_NONE_WORD = re.compile(r"\bnone\b", re.IGNORECASE)


def _directive_payload(text: str, name: str) -> str | None:
    """Payload of the last line starting with ``<name>:``, or None."""
    pattern = re.compile(rf"^\s*{name}\s*:\s*(.*?)\s*$", re.IGNORECASE)
    for line in reversed(text.splitlines()):
        match = pattern.match(line)
        if match:
            return match.group(1)
    return None


def _strip_directive_lines(text: str, name: str) -> str:
    pattern = re.compile(rf"^\s*{name}\s*:", re.IGNORECASE)
    return "\n".join(line for line in text.splitlines() if not pattern.match(line))


def _letters_in(content: str, m: int, pattern: re.Pattern[str]) -> list[int]:
    found: list[int] = []
    for match in pattern.finditer(content):
        letter = next(g for g in match.groups() if g)
        index = letter_to_index(letter)
        if index < m and index not in found:
            found.append(index)
    return found


def _sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT.split(text) if s.strip()]


def parse_exclusions(text: str, m: int) -> ExclusionResult:
    """Recover the excluded option set from text.

    Priority: (1) a trailing "Excluded: ..." line parsed as letters;
    (2) letter mentions adjacent to negative predicates in the prose.
    Letters addressing no option (index >= m) are ignored. Raises
    :class:`Unparseable` when neither rule fires and the text does not
    say "none".
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    payload = _directive_payload(text, "excluded")
    if payload is not None:
        if _NONE_WORD.search(payload):
            return ExclusionResult(excluded=frozenset(), raw_text=text)
        excluded = _letters_in(payload, m, _DIRECTIVE_LETTER)
        if excluded:
            return ExclusionResult(excluded=frozenset(excluded), raw_text=text)
        # Fall through: the directive payload carried no usable letters.
    excluded = _scan_negative_mentions(_strip_directive_lines(text, "excluded"), m)
    if excluded:
        return ExclusionResult(excluded=frozenset(excluded), raw_text=text)
    if _NONE_WORD.search(text):
        return ExclusionResult(excluded=frozenset(), raw_text=text)
    raise Unparseable(f"no exclusion found in: {text[:120]!r}")


def _scan_negative_mentions(body: str, m: int) -> list[int]:
    found: list[int] = []
    for sentence in _sentences(body):
        lowered = sentence.lower()
        if not any(p in lowered for p in _NEGATIVE_PREDICATES):
            continue
        for index in _letters_in(sentence, m, _PROSE_LETTER):
            if index not in found:
                found.append(index)
    return found


def parse_verdict(text: str) -> Verdict:
    """Recover the verdict from one option's analysis text.

    Priority: (1) a trailing "Verdict: ..." line; (2) the first sentence
    containing "reasonable"/"unreasonable", with negation handling
    ("not reasonable" counts as unreasonable).
    """
    payload = _directive_payload(text, "verdict")
    if payload is not None:
        verdict = _read_verdict_word(payload)
        if verdict is not None:
            return verdict
    for sentence in _sentences(text):
        verdict = _read_verdict_word(sentence)
        if verdict is not None:
            return verdict
    raise Unparseable(f"no verdict found in: {text[:120]!r}")


def _read_verdict_word(fragment: str) -> Verdict | None:
    lowered = fragment.lower()
    if "unreasonable" in lowered:
        return Verdict.UNREASONABLE
    if "reasonable" in lowered:
        if _NEGATORS.search(fragment):
            return Verdict.UNREASONABLE
        return Verdict.REASONABLE
    return None


def parse_final_set(text: str, m: int) -> frozenset[int]:
    """Recover the final answer option set from text.

    Priority: (1) the trailing "Answer: ..." line; (2) letters listed
    after the last occurrence of "correct"/"reasonable". An explicit
    "Answer: none" yields the empty set. Raises :class:`Unparseable`
    when no rule fires and :class:`EmptySet` when a rule fires without
    producing a valid letter.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    payload = _directive_payload(text, "answer")
    if payload is not None:
        if _NONE_WORD.search(payload):
            return frozenset()
        chosen = _letters_in(payload, m, _DIRECTIVE_LETTER)
        if chosen:
            return frozenset(chosen)
        raise EmptySet(f"answer line carried no valid letter: {payload[:80]!r}")
    last = None
    for match in re.finditer(r"\bcorrect\b|\breasonable\b", text, re.IGNORECASE):
        last = match
    if last is None:
        raise Unparseable(f"no answer found in: {text[:120]!r}")
    tail = text[last.end():]
    chosen = _letters_in(tail, m, _PROSE_LETTER)
    if not chosen:
        raise EmptySet(f"no valid letter after {last.group(0)!r}: {tail[:80]!r}")
    return frozenset(chosen)


def parse_pick(text: str, m: int, verb: str = "pick") -> tuple[int, bool]:
    """Recover one picked/removed option and the loop-continuation flag.

    ``verb`` is "pick" or "remove". Priority: (1) the trailing
    "Pick:"/"Remove:" line; (2) the first tolerated letter mention in
    prose. The continuation flag comes from a "More: yes/no" line and
    defaults to True when absent (the iteration cap bounds the loop).
    """
    payload = _directive_payload(text, verb)
    chosen: list[int] = []
    if payload is not None:
        chosen = _letters_in(payload, m, _DIRECTIVE_LETTER)
    if not chosen:
        chosen = _letters_in(text, m, _PROSE_LETTER)
    if not chosen:
        raise Unparseable(f"no {verb} found in: {text[:120]!r}")
    more_payload = _directive_payload(text, "more")
    more = True
    if more_payload is not None:
        more = not more_payload.strip().lower().startswith("no")
    return chosen[0], more
