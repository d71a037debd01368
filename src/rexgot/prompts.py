"""Prompt rendering for every strategy and step.

The instruction sentences live in versioned resource files under
``templates/`` so documentation and tests can pin exact bytes. The
context is rendered straight from the :class:`MCQInstance` and the stage
inputs: numbered dialogue turns with speaker prefixes, a quoted
"Target:" line, a "Question:" line and lettered option lines, then the
exclusion text (steps 2 and 3) and the per-option analyses (step 3).
Option and target texts in the instruction are the instance's own.
Rendering is pure: equal inputs always produce byte-identical prompts.
"""

from __future__ import annotations

import math
from enum import Enum
from importlib import resources
from typing import Mapping, Sequence

from .model import MCQInstance, MissingStageInput, index_to_letter

EXCLUSION_HEADER = "Excluded options and reasons:"
VERDICTS_HEADER = "Option analyses:"
OMITTED_MARKER = "[earlier turns omitted]"

# Crude but deterministic size estimate used for the prompt budget.
CHARS_PER_TOKEN = 4


class PromptKind(Enum):
    STANDARD = "standard"
    VANILLA_COT = "vanilla_cot"
    STEP1_EXCLUSION = "step1_exclusion"
    STEP2_VERDICT = "step2_verdict"
    STEP3_COMBINE = "step3_combine"
    FORWARD_PICK = "forward_pick"
    BACKWARD_PICK = "backward_pick"


_template_cache: dict[str, str] = {}


def _load_template(name: str) -> str:
    if name not in _template_cache:
        text = (resources.files("rexgot") / "templates" / f"{name}.txt").read_text("utf-8")
        _template_cache[name] = text.rstrip("\n")
    return _template_cache[name]


def template_version() -> str:
    return (resources.files("rexgot") / "templates" / "VERSION").read_text("utf-8").strip()


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text) / CHARS_PER_TOKEN)


def _instruction_fields(
    instance: MCQInstance, kind: PromptKind, option_index: int | None, taken: Sequence[int]
) -> dict[str, str]:
    """The template fields besides ``context`` that ``kind`` fills in."""
    if kind is PromptKind.STEP2_VERDICT:
        if option_index is None or not 0 <= option_index < instance.m:
            raise ValueError(f"step-2 prompt needs a valid option_index, got {option_index!r}")
        return {
            "option_label": index_to_letter(option_index),
            "option_text": instance.options[option_index],
        }
    if kind in (PromptKind.STEP1_EXCLUSION, PromptKind.STEP3_COMBINE):
        return {"target": instance.target.text}
    if kind in (PromptKind.FORWARD_PICK, PromptKind.BACKWARD_PICK):
        taken_set = sorted(set(taken))
        verb = "selected" if kind is PromptKind.FORWARD_PICK else "removed"
        progress = (
            f"Already {verb}: " + ", ".join(index_to_letter(i) for i in taken_set) + ".\n"
            if taken_set
            else ""
        )
        remaining = [index_to_letter(i) for i in range(instance.m) if i not in taken_set]
        return {"progress": progress, "remaining": ", ".join(remaining) or "none"}
    return {}


def render_prompt(
    instance: MCQInstance,
    kind: PromptKind,
    a1: str | None = None,
    a2: Mapping[int, str] | None = None,
    option_index: int | None = None,
    taken: Sequence[int] = (),
    max_prompt_tokens: int | None = None,
) -> str:
    """Render the prompt for ``kind`` on ``instance``, trimmed to the token budget.

    ``a1`` is the exclusion-step answer text (required by STEP2_VERDICT
    and STEP3_COMBINE) and ``a2`` maps option index to that option's
    analysis text (required by STEP3_COMBINE; indices outside the option
    range are left out). ``option_index`` selects the option under
    analysis (STEP2_VERDICT); ``taken`` lists the options already picked
    (forward) or removed (backward) by the iterative strategies.

    When the prompt exceeds ``max_prompt_tokens``, the fewest earliest
    dialogue turns that make it fit are dropped, behind an omission
    marker; the target turn and the turns after it are never dropped, so
    an impossible budget keeps only those.
    """
    if kind in (PromptKind.STEP2_VERDICT, PromptKind.STEP3_COMBINE) and a1 is None:
        raise MissingStageInput(f"{kind.value} requires the exclusion text a1")
    if kind is PromptKind.STEP3_COMBINE and a2 is None:
        raise MissingStageInput(f"{kind.value} requires the per-option verdict texts a2")
    fields = _instruction_fields(instance, kind, option_index, taken)
    template = _load_template(kind.value)

    turns = [f"{i + 1}. {turn.speaker}: {turn.text}" for i, turn in enumerate(instance.dialogue)]
    sections = [
        f'Target: "{instance.target.text}"',
        f"Question: {instance.question}",
        "\n".join(f"{index_to_letter(i)}. {text}" for i, text in enumerate(instance.options)),
    ]
    if kind in (PromptKind.STEP2_VERDICT, PromptKind.STEP3_COMBINE):
        sections.append(f"{EXCLUSION_HEADER}\n{a1}")
    if kind is PromptKind.STEP3_COMBINE:
        verdicts = [f"{index_to_letter(i)}. {a2[i]}" for i in sorted(a2) if 0 <= i < instance.m]
        sections.append(VERDICTS_HEADER + "\n" + "\n".join(verdicts))
    rest = "\n\n".join(sections)

    def with_omitted(omit: int) -> str:
        dialogue = ([OMITTED_MARKER] if omit else []) + turns[omit:]
        return template.format(context="\n".join(dialogue) + "\n\n" + rest, **fields)

    prompt = with_omitted(0)
    if max_prompt_tokens is None or estimate_tokens(prompt) <= max_prompt_tokens:
        return prompt
    # Each dropped turn takes its line and newline; the marker adds one line.
    # Scan up from one: dropping a short turn can lengthen the prompt, so a
    # later omit count may fit where an earlier one does not.
    size = len(prompt) + len(OMITTED_MARKER) + 1
    omit = 0
    while omit < instance.target_index:
        size -= len(turns[omit]) + 1
        omit += 1
        if math.ceil(size / CHARS_PER_TOKEN) <= max_prompt_tokens:
            break
    return with_omitted(omit) if omit else prompt
