"""The simulated chat model behind the stub server.

Everything here is a pure function of its arguments and the world seed,
so the stub can stay stateless: a reply depends only on the prompt
bytes, ``n``, ``temperature``, the sample index and the seed. The corpus
generator and the output checks use the same functions, so they know in
advance what the model will answer without looking at ``rexgot``.

The model reads the options out of the prompt and judges each one by a
seeded hash of its text ("truth"). Per instance (keyed by the target
utterance and the option texts) it is either

* an *oracle* instance: every reply is right and ends in the directive
  line the template asks for, so every strategy must return the gold set;
* a *noisy* instance: each reply is a directive, prose with no directive
  line, or unparseable text, chosen per reply by a hash; for half of
  them the model also misjudges one option.

Independently, on 40 % of the instances the K step-1 samples are
identical (the wrong options are "obvious"); on the rest each sample is
worded differently. Identical samples make the later prompts of all K
paths identical too, so such instances cost far fewer server calls under
a record cache; the share is kept off 50 % so that the latency median
falls inside one of the two groups, not on the gap between them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

ORACLE_SHARE = 0.8
SAME_STEP1_SHARE = 0.4
FLIP_SHARE = 0.5  # of noisy instances
UNPARSEABLE_SHARE = 0.15  # of replies on noisy instances
PROSE_SHARE = 0.45  # of replies on noisy instances

STEP1, STEP2, STEP3 = "step1", "step2", "step3"
STANDARD, COT, FORWARD, BACKWARD = "standard", "cot", "forward", "backward"

DIRECTIVE, PROSE, UNPARSEABLE = "directive", "prose", "unparseable"
STYLES = (DIRECTIVE, PROSE, UNPARSEABLE)

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def unit(seed: int, *parts: object) -> float:
    """A uniform number in [0, 1) drawn from the seed and the parts."""
    text = "\x1f".join([str(seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def option_is_right(seed: int, option_text: str) -> bool:
    return unit(seed, "truth", option_text) < 0.5


@dataclass(frozen=True)
class Traits:
    """Per-instance behaviour of the simulated model."""

    oracle: bool
    same_step1: bool
    flipped: int | None  # option the model misjudges, noisy instances only


def traits(seed: int, target: str, options: tuple[str, ...]) -> Traits:
    key = "\n".join((target, *options))
    oracle = unit(seed, "oracle", key) < ORACLE_SHARE
    flipped = None
    if not oracle and unit(seed, "flip", key) < FLIP_SHARE:
        flipped = int(unit(seed, "flip-index", key) * len(options))
    return Traits(
        oracle=oracle,
        same_step1=unit(seed, "same", key) < SAME_STEP1_SHARE,
        flipped=flipped,
    )


def believed_right(seed: int, target: str, options: tuple[str, ...]) -> frozenset[int]:
    """The options the model judges correct on this instance."""
    right = {i for i, text in enumerate(options) if option_is_right(seed, text)}
    flipped = traits(seed, target, options).flipped
    if flipped is not None:
        right ^= {flipped}
    return frozenset(right)


@dataclass(frozen=True)
class PromptView:
    """What the model reads out of one rendered prompt."""

    kind: str
    target: str
    options: tuple[str, ...]
    option_index: int | None  # option under analysis (step 2)
    taken: frozenset[int]  # options already picked/removed (forward/backward)
    turns_kept: int
    turns_total: int


_CONTEXT = re.compile(r'\n\nTarget: "(.*)"\n\nQuestion: .*\n\n')
_OPTION_LINE = re.compile(r"^([A-Z])\. (.*)$")
_TURN_LINE = re.compile(r"^(\d+)\. ")
_STEP2_LABEL = re.compile(r"if the answer is ([A-Z])\. ")
_PROGRESS = re.compile(r"^Already (?:selected|removed): ([A-Z, ]+)\.$", re.MULTILINE)

# (marker in the instruction paragraph, prompt kind); first match wins.
_KIND_MARKERS = (
    ("is it reasonable and why?", STEP2),
    ("are unreasonable and why?", STEP1),
    ("are reasonable?", STEP3),
    ("let's think step-by-step", COT),
    ("which options are correct?", STANDARD),
    ("most plausible correct answer?", FORWARD),
    ("most clearly incorrect?", BACKWARD),
)


def read_prompt(prompt: str) -> PromptView:
    """Recover the prompt kind, target, options and progress from a prompt."""
    match = _CONTEXT.search(prompt)
    if match is None:
        raise ValueError("prompt has no Target/Question block")
    options_block = prompt[match.end():].split("\n\n", 1)[0]
    options = []
    for line in options_block.splitlines():
        option = _OPTION_LINE.match(line)
        if option is None or option.group(1) != LETTERS[len(options)]:
            raise ValueError(f"unexpected option line {line!r}")
        options.append(option.group(2))
    instruction = prompt.rsplit("\n\n", 1)[-1]
    kind = next((k for marker, k in _KIND_MARKERS if marker in instruction), None)
    if kind is None:
        raise ValueError("unrecognised instruction")
    option_index = None
    if kind == STEP2:
        label = _STEP2_LABEL.search(instruction)
        if label is None:
            raise ValueError("step-2 prompt names no option")
        option_index = LETTERS.index(label.group(1))
    taken: frozenset[int] = frozenset()
    progress = _PROGRESS.search(instruction)
    if progress:
        taken = frozenset(LETTERS.index(x.strip()) for x in progress.group(1).split(","))
    turn_numbers = [
        int(turn.group(1))
        for turn in map(_TURN_LINE.match, prompt[: match.start()].splitlines())
        if turn
    ]
    return PromptView(
        kind=kind,
        target=match.group(1),
        options=tuple(options),
        option_index=option_index,
        taken=taken,
        turns_kept=len(turn_numbers),
        turns_total=max(turn_numbers, default=0),
    )


_STEP1_LEADS = (
    "",
    "Checking each option against the target. ",
    "Reading the dialogue closely. ",
    "Weighing what the speakers said. ",
    "Going through the options in turn. ",
    "Comparing the options with the situation. ",
    "Thinking about the speakers. ",
    "Looking at the context again. ",
)
_STEP1_REASONS = (
    "Option {} does not fit what the speakers said.",
    "Option {} is unreasonable given the dialogue.",
    "Option {} is incorrect for this situation.",
    "Option {} is not supported by the context.",
    "Option {} should be excluded because the target says otherwise.",
)
_UNPARSEABLE = (
    "Hard to tell from this context.",
    "The dialogue is ambiguous here.",
    "More information would help.",
)


def _letters(indices) -> str:
    return ", ".join(LETTERS[i] for i in sorted(indices))


def _prose_letters(indices) -> str:
    return " and ".join(LETTERS[i] for i in sorted(indices))


def reply_text(view: PromptView, style: str, variant: int, right: frozenset[int]) -> str:
    """One completion for the prompt, in the given style and wording variant."""
    m = len(view.options)
    wrong = frozenset(range(m)) - right
    if style == UNPARSEABLE:
        return _UNPARSEABLE[variant % len(_UNPARSEABLE)]
    if view.kind == STEP1:
        lead = _STEP1_LEADS[variant % len(_STEP1_LEADS)]
        reasons = " ".join(
            _STEP1_REASONS[(variant + j) % len(_STEP1_REASONS)].format(LETTERS[i])
            for j, i in enumerate(sorted(wrong))
        )
        if style == PROSE:
            return lead + (reasons or "Every option fits; none stands out as wrong.")
        return f"{lead}{reasons or 'Every option fits.'}\nExcluded: {_letters(wrong) or 'none'}"
    if view.kind == STEP2:
        label = LETTERS[view.option_index]
        ok = view.option_index in right
        if style == PROSE:
            return f"Considering the dialogue, option {label} is {'' if ok else 'not '}reasonable."
        if ok:
            return f"Option {label} fits the dialogue and the target.\nVerdict: reasonable"
        return f"Option {label} conflicts with the target.\nVerdict: unreasonable"
    if view.kind in (STEP3, STANDARD, COT):
        if style == PROSE:
            if not right:
                return "No option looks correct here."
            return f"The correct options are {_prose_letters(right)}."
        lead = {STEP3: "Combining the analyses above.\n", COT: "Thinking step by step.\n"}
        return f"{lead.get(view.kind, '')}Answer: {_letters(right) or 'none'}"
    # Iterative strategies: forward picks right options, backward removes wrong ones.
    pool = right if view.kind == FORWARD else wrong
    remaining = sorted(pool - view.taken)
    if remaining:
        pick, more = remaining[0], len(remaining) > 1
    else:
        pick, more = (max(view.taken) if view.taken else 0), False
    if style == PROSE:
        adjective = "plausible" if view.kind == FORWARD else "clearly incorrect"
        return f"The most {adjective} remaining option is {LETTERS[pick]}."
    verb = "Pick" if view.kind == FORWARD else "Remove"
    return f"{verb}: {LETTERS[pick]}\nMore: {'yes' if more else 'no'}"


def reply_style(seed: int, prompt: str, n: int, temperature: float, variant: int) -> str:
    u = unit(seed, "style", prompt, n, temperature, variant)
    if u < UNPARSEABLE_SHARE:
        return UNPARSEABLE
    if u < UNPARSEABLE_SHARE + PROSE_SHARE:
        return PROSE
    return DIRECTIVE


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Reply:
    body: bytes
    view: PromptView
    texts: tuple[str, ...]
    styles: tuple[str, ...]
    prompt_tokens: int


def reply(request: dict, seed: int) -> Reply:
    """The response body for one chat-completions request body."""
    prompt = request["messages"][-1]["content"]
    n = int(request.get("n", 1))
    temperature = float(request.get("temperature", 0.0))
    view = read_prompt(prompt)
    instance = traits(seed, view.target, view.options)
    right = believed_right(seed, view.target, view.options)
    texts, styles = [], []
    for index in range(n):
        variant = index
        if temperature == 0 or (view.kind == STEP1 and instance.same_step1):
            variant = 0
        style = DIRECTIVE
        if not instance.oracle:
            style = reply_style(seed, prompt, n, temperature, variant)
        texts.append(reply_text(view, style, variant, right))
        styles.append(style)
    prompt_tokens = estimate_tokens(prompt)
    completion_tokens = sum(estimate_tokens(t) for t in texts)
    digest = hashlib.sha256(
        json.dumps([prompt, n, temperature, seed], ensure_ascii=True).encode("ascii")
    ).hexdigest()
    payload = {
        "id": f"stub-{digest[:24]}",
        "object": "chat.completion",
        "model": request.get("model", ""),
        "choices": [
            {
                "index": i,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }
            for i, text in enumerate(texts)
        ],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        },
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return Reply(
        body=body,
        view=view,
        texts=tuple(texts),
        styles=tuple(styles),
        prompt_tokens=prompt_tokens,
    )
