"""Core domain types shared across the pipeline.

All types are immutable after construction and safe to share between
concurrent workers. Options are identified by 0-based index everywhere
inside the library; the positional letter labels ("A", "B", ...) exist
only at the prompt/parse boundary. Prompt contexts have no type of
their own: :mod:`rexgot.prompts` renders them straight from an
:class:`MCQInstance` and the earlier steps' texts.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from .reasoner import ReasoningPath

MAX_OPTIONS = 26

OPTION_LETTERS = string.ascii_uppercase

# The JSON values a dataclass field of each declared type accepts; the first
# is what a command-line flag's text converts to. A bool is neither an int
# nor a float, though Python counts it as an int.
JSON_TYPES = {"str": (str,), "int": (int,), "int | None": (int, type(None)), "float": (float, int)}


class RexGotError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RexGotError):
    """An instance record violates a construction invariant."""

    def __init__(self, message: str, *, field_name: str):
        super().__init__(message)
        self.field_name = field_name


class EmptyOptions(ValidationError):
    """Fewer than two answer options were supplied."""


class GoldOutOfRange(ValidationError):
    """A gold answer index does not address any option."""


class EmptyGold(ValidationError):
    """The gold answer set is empty; every question has >= 1 correct option."""


class TargetOutOfRange(ValidationError):
    """The target utterance index does not address any dialogue turn."""


def check_json_types(cls: type, values: Mapping[str, Any]) -> None:
    """Raise :class:`TypeError` for the first value the type of its field in ``cls`` refuses."""
    for declared in fields(cls):
        if declared.name in values:
            value = values[declared.name]
            if isinstance(value, bool) or not isinstance(value, JSON_TYPES[declared.type]):
                raise TypeError(f"{declared.name} must be {declared.type}, got {value!r}")


def index_to_letter(index: int) -> str:
    """Positional option label: 0 -> "A", 1 -> "B", ... (bijective for m <= 26)."""
    if not 0 <= index < MAX_OPTIONS:
        raise ValueError(f"option index {index} outside labelled range 0..{MAX_OPTIONS - 1}")
    return OPTION_LETTERS[index]


def letter_to_index(letter: str) -> int:
    """Inverse of :func:`index_to_letter`; case-insensitive."""
    upper = letter.upper()
    if len(upper) != 1 or upper not in OPTION_LETTERS:
        raise ValueError(f"not an option letter: {letter!r}")
    return OPTION_LETTERS.index(upper)


@dataclass(frozen=True)
class Utterance:
    """One dialogue turn."""

    speaker: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError("utterance text is empty", field_name="text")


@dataclass(frozen=True)
class MCQInstance:
    """One dialogue, a target utterance, a question, and labelled options.

    ``gold`` holds the indices of all correct options and is never empty.
    ``inference_type`` is an optional tag such as "cause" or "motivation".
    """

    id: str
    dialogue: tuple[Utterance, ...]
    target_index: int
    question: str
    options: tuple[str, ...]
    gold: frozenset[int]
    inference_type: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "dialogue", tuple(self.dialogue))
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "gold", frozenset(self.gold))
        if not self.id:
            raise ValidationError("instance id is empty", field_name="id")
        if not self.dialogue:
            raise ValidationError("dialogue has no turns", field_name="dialogue")
        texts = {
            "id": [self.id],
            "dialogue": [s for turn in self.dialogue for s in (turn.speaker, turn.text)],
            "question": [self.question],
            "options": self.options,
            "inference_type": [self.inference_type or ""],
        }
        for name, values in texts.items():
            # Only a lone surrogate, such as a JSON escape \udcff decodes to, fails here.
            try:
                "".join(values).encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(
                    f"instance {self.id!r}: {name} holds a lone surrogate, which is not UTF-8",
                    field_name=name,
                ) from None
        if len(self.options) < 2:
            raise EmptyOptions(
                f"instance {self.id}: got {len(self.options)} options, need >= 2",
                field_name="options",
            )
        if len(self.options) > MAX_OPTIONS:
            raise ValidationError(
                f"instance {self.id}: {len(self.options)} options exceed the "
                f"{MAX_OPTIONS}-letter label space",
                field_name="options",
            )
        for i, text in enumerate(self.options):
            if not text.strip():
                raise EmptyOptions(
                    f"instance {self.id}: option {index_to_letter(i)} is blank",
                    field_name="options",
                )
        if not self.question.strip():
            raise ValidationError(
                f"instance {self.id}: question is empty", field_name="question"
            )
        if not 0 <= self.target_index < len(self.dialogue):
            raise TargetOutOfRange(
                f"instance {self.id}: target_index {self.target_index} outside "
                f"dialogue of length {len(self.dialogue)}",
                field_name="target_index",
            )
        if not self.gold:
            raise EmptyGold(
                f"instance {self.id}: gold answer set is empty", field_name="gold"
            )
        for g in self.gold:
            if not isinstance(g, int) or not 0 <= g < len(self.options):
                raise GoldOutOfRange(
                    f"instance {self.id}: gold index {g!r} outside 0..{len(self.options) - 1}",
                    field_name="gold",
                )

    @property
    def m(self) -> int:
        return len(self.options)

    @property
    def target(self) -> Utterance:
        return self.dialogue[self.target_index]


def validate_instance(raw: Mapping[str, Any] | MCQInstance) -> MCQInstance:
    """Construct a validated :class:`MCQInstance` from a raw record.

    An instance, valid since its construction, is returned as it is. In a
    record, ``id``, ``question``, each option and each turn's ``speaker``
    (when present) and ``text`` must be strings, and ``dialogue``,
    ``options`` and ``answers`` lists; nothing is converted. Raises a
    :class:`ValidationError` subtype naming the offending field.
    """
    if isinstance(raw, MCQInstance):
        return raw
    for key in ("id", "dialogue", "target_index", "question", "options", "answers"):
        if key not in raw:
            raise ValidationError(f"record is missing field {key!r}", field_name=key)
    for key in ("options", "answers"):
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be a list, got {raw[key]!r}", field_name=key)
    if not isinstance(raw["dialogue"], (list, tuple)):  # a tuple of Utterances from Python
        raise ValidationError(
            f"dialogue must be a list, got {raw['dialogue']!r}", field_name="dialogue"
        )
    for key, indices in (("target_index", [raw["target_index"]]), ("answers", raw["answers"])):
        if not all(type(index) is int for index in indices):
            raise ValidationError(f"{key} must hold integers, got {raw[key]!r}", field_name=key)
    inference_type = raw.get("inference_type")
    _require_string(raw["id"], "id", "id")
    _require_string(raw["question"], "question", "question")
    if inference_type is not None:
        _require_string(inference_type, "inference_type", "inference_type")
    for option in raw["options"]:
        _require_string(option, "each option", "options")
    dialogue = []
    for turn in raw["dialogue"]:
        if isinstance(turn, Utterance):
            dialogue.append(turn)
        elif isinstance(turn, dict):
            if "text" not in turn:
                raise ValidationError(
                    f"dialogue turn {turn!r} has no text", field_name="dialogue"
                )
            speaker, text = turn.get("speaker", ""), turn["text"]
            _require_string(speaker, "a turn's speaker", "dialogue")
            _require_string(text, "a turn's text", "dialogue")
            dialogue.append(Utterance(speaker=speaker, text=text))
        else:
            raise ValidationError(
                f"dialogue turns must be objects, got {turn!r}", field_name="dialogue"
            )
    return MCQInstance(
        id=raw["id"],
        dialogue=tuple(dialogue),
        target_index=raw["target_index"],
        question=raw["question"],
        options=tuple(raw["options"]),
        gold=frozenset(raw["answers"]),
        inference_type=inference_type,
    )


def _require_string(value: Any, what: str, field_name: str) -> None:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}", field_name=field_name)


class MissingStageInput(RexGotError):
    """A prompt was requested without the earlier step's text it builds on."""


@dataclass(frozen=True)
class Prediction:
    """Final answer for one instance under one strategy.

    ``chosen`` is never empty. ``paths`` and ``vote_tally`` are populated
    only by the multi-path strategy; single-shot strategies leave them empty.
    ``fallback_used`` flags that any parse fallback or vote rescue fired.
    """

    instance_id: str
    strategy: "Strategy"
    chosen: frozenset[int]
    paths: tuple["ReasoningPath", ...] = ()
    vote_tally: Mapping[int, int] = field(default_factory=dict)
    fallback_used: bool = False

    def __post_init__(self):
        object.__setattr__(self, "chosen", frozenset(self.chosen))
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "vote_tally", dict(self.vote_tally))
        if not self.chosen:
            raise ValidationError(
                f"prediction for {self.instance_id}: chosen set is empty",
                field_name="chosen",
            )
        for i in self.chosen:
            if not isinstance(i, int) or i < 0:
                raise ValidationError(
                    f"prediction for {self.instance_id}: bad option index {i!r}",
                    field_name="chosen",
                )


class Strategy(Enum):
    """The five answer-selection strategies the harness can run."""

    STANDARD = "standard"
    COT = "cot"
    REX_GOT = "rex_got"
    FORWARD = "forward"
    BACKWARD = "backward"
