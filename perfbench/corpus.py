"""Seeded corpus generator for the benchmark workloads.

``generate(seed, stream, n, shape)`` returns ``n`` canonical corpus
records; the same arguments always give the same records. The shares of
oracle, identical-step-1 and misjudged instances (see ``fakellm``) are
exact per corpus rather than drawn, and option counts and gold-set sizes
are spread evenly, so corpora from different seeds differ in wording but
not in mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import fakellm

SPEAKERS = ("Maya", "Omar", "Lena", "Ravi", "Chloe", "Tomas", "Priya", "Jonah")
QUESTIONS = (
    ("cause", "What is or could be the cause of the target?"),
    ("consequence", "What is or could be the consequence of the target?"),
    ("motivation", "What is or could be the motivation of the target?"),
    ("subsequent_event", "What subsequent event happens or could happen following the target?"),
    ("prerequisite", "What is or could be the prerequisite of the target?"),
)
WORDS = (
    "about after again already also always another around away back because been before "
    "being better between both bring brought busy call called came careful change cheap "
    "city class close coffee cold come could dinner door down early easy evening every "
    "exam family far fast feel felt find fine first friend friends from game gave give "
    "going good great happy hard have heard help here home hope hour house idea just keep "
    "kitchen know last late later leave left less letter like little long look lost lunch "
    "made make many maybe meeting might money month morning much music need never new news "
    "next nice night office often only open order other over paper party people phone "
    "picture place plan plans play quite rain ready really rest right room said same "
    "school seen should show sister small some soon sorry start station still store story "
    "street study sure table take talk team than that their them then there these they "
    "thing think this through ticket time tired today together told tomorrow took train "
    "trip tried under until very visit wait walk want warm watch water week weekend well "
    "went were what when where while window with work worried would write wrong year yesterday"
).split()


@dataclass(frozen=True)
class Shape:
    """The input properties a workload varies."""

    turns: tuple[int, int]  # dialogue length range, inclusive
    ms: tuple[int, ...]  # option counts, spread evenly
    gold_sizes: tuple[int, ...]  # gold-set sizes, spread evenly, capped at m - 1


def _sentence(rng: random.Random, lo: int, hi: int) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(lo, hi))]
    return " ".join(words).capitalize() + "."


def _spread(rng: random.Random, values, n: int) -> list:
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _exact(rng: random.Random, share: float, n: int) -> list[bool]:
    hits = round(n * share)
    out = [True] * hits + [False] * (n - hits)
    rng.shuffle(out)
    return out


def generate(seed: int, stream: str, n: int, shape: Shape) -> list[dict]:
    """``n`` records for the world ``seed``; ``stream`` names an independent corpus."""
    rng = random.Random(f"{seed}/{stream}")
    oracle = _exact(rng, fakellm.ORACLE_SHARE, n)
    same = _exact(rng, fakellm.SAME_STEP1_SHARE, n)
    flips = iter(_exact(rng, fakellm.FLIP_SHARE, oracle.count(False)))
    flipped = [False if o else next(flips) for o in oracle]
    ms = _spread(rng, shape.ms, n)
    gold_sizes = _spread(rng, shape.gold_sizes, n)
    records = []
    for i in range(n):
        m = ms[i]
        gold = set(rng.sample(range(m), min(gold_sizes[i], m - 1)))
        options: list[str] = []
        for j in range(m):
            while True:
                text = _sentence(rng, 4, 8)
                if text not in options and fakellm.option_is_right(seed, text) == (j in gold):
                    options.append(text)
                    break
        want = (oracle[i], same[i], flipped[i])
        while True:
            target = _sentence(rng, 6, 14)
            got = fakellm.traits(seed, target, tuple(options))
            if (got.oracle, got.same_step1, got.flipped is not None) == want:
                break
        speakers = rng.sample(SPEAKERS, 2)
        n_turns = rng.randint(*shape.turns)
        dialogue = [
            {"speaker": speakers[t % 2], "text": _sentence(rng, 6, 16)} for t in range(n_turns - 1)
        ]
        dialogue.append({"speaker": speakers[(n_turns - 1) % 2], "text": target})
        inference_type, question = QUESTIONS[i % len(QUESTIONS)]
        records.append(
            {
                "id": f"{stream}-{i:04d}",
                "dialogue": dialogue,
                "target_index": n_turns - 1,
                "question": question,
                "options": options,
                "answers": sorted(gold),
                "inference_type": inference_type,
            }
        )
    return records


def oracle_gold(seed: int, record: dict) -> frozenset[int] | None:
    """The gold set if every strategy must find it on this record, else None.

    That holds where the simulated model is right and always answers with
    the directive line, independent of how ``rexgot`` parses or votes.
    """
    target = record["dialogue"][record["target_index"]]["text"]
    options = tuple(record["options"])
    if not fakellm.traits(seed, target, options).oracle:
        return None
    gold = frozenset(record["answers"])
    if fakellm.believed_right(seed, target, options) != gold:
        raise RuntimeError(f"{record['id']}: simulated model disagrees with gold")
    return gold


def write_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
