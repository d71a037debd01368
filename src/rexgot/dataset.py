"""Corpus loading, saving, filtering, and summary statistics.

Canonical on-disk format is JSON Lines (UTF-8, ``\\n`` terminated), one
object per instance::

    {"id": "...", "dialogue": [{"speaker": "A", "text": "..."}, ...],
     "target_index": 0, "question": "...", "options": ["...", ...],
     "answers": [0, 2], "inference_type": "cause"}

``answers`` holds 0-based option indices; option position defines the
letter label. A ``cicero_release`` adapter maps the public dialogue-
inference release layout onto this schema (see ``_adapt_release_record``
for the exact field mapping).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .model import MCQInstance, RexGotError, ValidationError, _require_string, validate_instance

CANONICAL = "canonical"
CICERO_RELEASE = "cicero_release"
FORMATS = (CANONICAL, CICERO_RELEASE)


class UnknownFormat(RexGotError):
    """The requested corpus format is not one of the supported names."""


class MalformedLine(RexGotError):
    """A corpus line is not a UTF-8 JSON object."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}, line {line_no}: {message}")
        self.line_no = line_no


class ValidationFailed(RexGotError):
    """A corpus line decoded but did not yield a valid instance."""

    def __init__(self, path: str | Path, line_no: int, cause: Exception | str):
        super().__init__(f"{path}, line {line_no}: {cause}")
        self.line_no = line_no
        self.cause = cause


@dataclass(frozen=True)
class Corpus:
    """An immutable list of validated instances with unique ids."""

    name: str
    instances: tuple[MCQInstance, ...]
    source_path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        seen: set[str] = set()
        for inst in self.instances:
            if inst.id in seen:
                raise ValidationError(
                    f"corpus {self.name}: duplicate instance id {inst.id!r}",
                    field_name="id",
                )
            seen.add(inst.id)

    def __len__(self) -> int:
        return len(self.instances)

    def by_id(self) -> dict[str, MCQInstance]:
        return {inst.id: inst for inst in self.instances}


def load_corpus(path: str | Path, format: str = CANONICAL, name: str | None = None) -> Corpus:
    """Load a corpus file; every line yields exactly one validated instance.

    Raises :class:`MalformedLine` / :class:`ValidationFailed` naming the
    file and the 1-based offending line number, or :class:`UnknownFormat`.
    """
    if format not in FORMATS:
        raise UnknownFormat(f"unknown corpus format {format!r}; expected one of {FORMATS}")
    path = Path(path)
    instances = []
    seen_ids: set[str] = set()
    # Each line is decoded on its own, so a byte that is not UTF-8 names its line.
    with path.open("rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            try:
                line = raw_line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(
                    path, line_no, f"not UTF-8 ({exc.reason} at byte {exc.start})"
                ) from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(path, line_no, f"invalid JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
                raise MalformedLine(path, line_no, f"invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise MalformedLine(path, line_no, "expected a JSON object")
            if format == CICERO_RELEASE:
                try:
                    record = _adapt_release_record(record)
                except (RexGotError, KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise ValidationFailed(path, line_no, exc) from exc
            try:
                instance = validate_instance(record)
            except (RexGotError, KeyError, TypeError, ValueError) as exc:
                raise ValidationFailed(path, line_no, exc) from exc
            if instance.id in seen_ids:
                raise ValidationFailed(path, line_no, f"duplicate instance id {instance.id!r}")
            seen_ids.add(instance.id)
            instances.append(instance)
    return Corpus(name=name or path.stem, instances=tuple(instances), source_path=str(path))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSON-Lines format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            record: dict[str, Any] = {
                "id": inst.id,
                "dialogue": [{"speaker": u.speaker, "text": u.text} for u in inst.dialogue],
                "target_index": inst.target_index,
                "question": inst.question,
                "options": list(inst.options),
                "answers": sorted(inst.gold),
            }
            if inst.inference_type is not None:
                record["inference_type"] = inst.inference_type
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def filter_multi(corpus: Corpus) -> Corpus:
    """Keep only the instances with more than one correct option, order preserved."""
    kept = tuple(inst for inst in corpus.instances if len(inst.gold) > 1)
    return Corpus(name=f"{corpus.name}-multi", instances=kept, source_path=corpus.source_path)


@dataclass(frozen=True)
class CorpusStats:
    total: int
    by_gold_count: Mapping[int, int]
    by_inference_type: Mapping[str, int]
    dialogue_count: int

    def to_json_dict(self) -> dict[str, Any]:
        by_gold_count = {str(k): v for k, v in sorted(self.by_gold_count.items())}
        return asdict(self) | {"by_gold_count": by_gold_count}


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Summarise a corpus: |gold| histogram, type counts, distinct dialogues.

    The |gold| histogram always sums to the instance count. Dialogues are
    deduplicated by their full (speaker, text) content.
    """
    gold_hist: Counter[int] = Counter(len(inst.gold) for inst in corpus.instances)
    type_hist: Counter[str] = Counter(
        inst.inference_type or "untyped" for inst in corpus.instances
    )
    dialogues = {
        tuple((u.speaker, u.text) for u in inst.dialogue) for inst in corpus.instances
    }
    return CorpusStats(
        total=len(corpus.instances),
        by_gold_count=dict(gold_hist),
        by_inference_type=dict(type_hist),
        dialogue_count=len(dialogues),
    )


_WS = re.compile(r"\s+")


def _norm(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _first_present(record: Mapping[str, Any], *keys: str) -> Any:
    for key in keys:
        if key in record:
            return record[key]
    raise KeyError(f"none of {keys} present in record")


def _adapt_release_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """Map a public release record onto the canonical schema.

    Field mapping: ``ID`` -> id; ``Dialogue`` (list of "Speaker: text"
    strings) -> dialogue; ``Target`` -> target_index by exact text match;
    ``Question`` -> question; ``Choices`` -> options; ``Correct Answers``
    (indices, option texts, or a JSON-encoded list) -> answers. Answers
    given as option text resolve by exact string match after whitespace
    normalization; anything unresolvable is a hard error. Every text
    field must be a JSON string, else a ``ValidationError`` names it.
    """
    inst_id = _first_present(record, "ID", "id")
    _require_string(inst_id, "ID", "id")
    raw_dialogue = _first_present(record, "Dialogue", "dialogue")
    if not isinstance(raw_dialogue, list):
        raise ValueError(f"record {inst_id}: Dialogue must be a list, got {raw_dialogue!r}")
    dialogue = []
    for turn in raw_dialogue:
        if isinstance(turn, Mapping):
            if "text" not in turn:
                raise ValueError(f"record {inst_id}: dialogue turn {dict(turn)!r} has no text")
            speaker, text = turn.get("speaker", ""), turn["text"]
            _require_string(speaker, f"record {inst_id}: a turn's speaker", "dialogue")
            _require_string(text, f"record {inst_id}: a turn's text", "dialogue")
            dialogue.append({"speaker": speaker, "text": text})
            continue
        _require_string(turn, f"record {inst_id}: each Dialogue turn", "dialogue")
        speaker, sep, text = turn.partition(": ")
        if sep and len(speaker) <= 20:
            dialogue.append({"speaker": speaker, "text": text})
        else:
            dialogue.append({"speaker": "", "text": turn})

    target = _first_present(record, "Target", "target")
    _require_string(target, f"record {inst_id}: Target", "target_index")
    target = _norm(target)
    target_index = None
    for i, turn in enumerate(dialogue):
        line = f"{turn['speaker']}: {turn['text']}" if turn["speaker"] else turn["text"]
        if _norm(turn["text"]) == target or _norm(line) == target:
            target_index = i
            break
    if target_index is None:
        raise ValueError(f"record {inst_id}: target utterance not found in dialogue")

    options = _first_present(record, "Choices", "choices", "options")
    if not isinstance(options, list):
        raise ValueError(f"record {inst_id}: Choices must be a list, got {options!r}")
    for option in options:
        _require_string(option, f"record {inst_id}: each choice", "options")
    question = _first_present(record, "Question", "question")
    _require_string(question, f"record {inst_id}: Question", "question")
    raw_answers = _first_present(
        record, "Correct Answers", "correct answers", "Answers", "answers"
    )
    answers = _resolve_answers(raw_answers, options, inst_id)

    adapted: dict[str, Any] = {
        "id": inst_id,
        "dialogue": dialogue,
        "target_index": target_index,
        "question": question,
        "options": options,
        "answers": answers,
    }
    for key in ("Type", "type", "Relation", "inference_type"):
        if key in record and record[key]:
            _require_string(record[key], f"record {inst_id}: {key}", "inference_type")
            adapted["inference_type"] = record[key]
            break
    return adapted


def _resolve_answers(raw: Any, options: list[str], inst_id: str) -> list[int]:
    if isinstance(raw, str):
        stripped = raw.strip()
        if stripped.startswith("["):
            raw = json.loads(stripped)
        else:
            raw = [stripped]
    if isinstance(raw, (int, float)):
        raw = [raw]
    if not isinstance(raw, Iterable):
        raise ValueError(f"record {inst_id}: unsupported answers value {raw!r}")
    normalized = [_norm(o) for o in options]
    indices = []
    for item in raw:
        if isinstance(item, bool):
            raise ValueError(f"record {inst_id}: boolean answer {item!r}")
        if isinstance(item, float) and not math.isfinite(item):
            raise ValueError(f"record {inst_id}: non-finite answer {item!r}")
        if isinstance(item, (int, float)) and int(item) == item:
            indices.append(int(item))
            continue
        text = _norm(str(item))
        if text not in normalized:
            raise ValueError(
                f"record {inst_id}: answer text {item!r} matches no option exactly"
            )
        indices.append(normalized.index(text))
    return indices
