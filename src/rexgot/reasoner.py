"""Strategy orchestration.

Implements the five answer-selection strategies: single-shot standard
and chain-of-thought prompting, iterative forward picking and backward
elimination, and the three-step exclusion pipeline that samples K
reasoning paths, assembles them into a thought graph, and selects the
answer by voting.

Each ``rex_got`` path runs the three steps in order, but no path waits
for another: since exclusions inform and never prune, every step-2
verdict call depends only on its path's step-1 sample, and each path's
step-3 call only on that path's verdicts. The calls run on a thread
pool, so an instance costs three round trips instead of 1 + K·(m+1).
Every sampled call (temperature > 0) carries a seed of its own, made from
the run's seed, its path and its attempt, so a cache never answers one
draw with another's reply. A reply that does not parse is asked again
once, and only when its step samples: a greedy resend is the same request,
so a cache or a deterministic server repeats the reply. The step-1 retries
are asked together, and a retried path goes on as soon as its own retry
returns; the paths whose samples parsed do not wait for any retry. Paths
whose step-1 samples agree ask byte-identical greedy questions, and each
is rendered and asked once per instance, so the number of calls is a
function of the step-1 texts alone. Distinct instances may be processed
concurrently by callers.
Results do not depend on the order in which calls finish: with a replay
cache and fixed config every strategy is a pure function of its inputs.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence, TypeVar

from .backend import Backend, CompletionRequest
from .model import MCQInstance, Prediction, RexGotError, Strategy, index_to_letter
from .parsing import (
    EmptySet,
    ExclusionResult,
    OptionVerdict,
    Unparseable,
    Verdict,
    parse_exclusions,
    parse_final_set,
    parse_pick,
    parse_verdict,
)
from .prompts import PromptKind, render_prompt


class NoPaths(RexGotError):
    """vote() was called without any reasoning path."""


class VoteKind(Enum):
    PER_OPTION_MAJORITY = "per_option_majority"
    PATH_PLURALITY = "path_plurality"


class TieBreak(Enum):
    PREFER_EXCLUDE = "prefer_exclude"
    PREFER_INCLUDE = "prefer_include"


@dataclass(frozen=True)
class VotePolicy:
    kind: VoteKind = VoteKind.PER_OPTION_MAJORITY
    tie_break: TieBreak = TieBreak.PREFER_EXCLUDE


@dataclass(frozen=True)
class ReasonerConfig:
    """All decoding knobs for one run.

    Diversity lives in the exclusion step (sampled at ``temperature_step1``);
    the per-option analysis and the combining step default to greedy
    decoding.
    """

    model_name: str = ""
    k: int = 3
    temperature_step1: float = 0.7
    temperature_step2: float = 0.0
    temperature_step3: float = 0.0
    max_tokens: int = 512
    vote_policy: VotePolicy = field(default_factory=VotePolicy)
    max_prompt_tokens: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        temperatures = (self.temperature_step1, self.temperature_step2, self.temperature_step3)
        if min(temperatures) < 0:
            raise ValueError(f"temperatures must be >= 0, got {list(temperatures)}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.max_prompt_tokens is not None and self.max_prompt_tokens < 1:
            raise ValueError(f"max_prompt_tokens must be >= 1, got {self.max_prompt_tokens}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ReasoningPath:
    """One sampled traversal: exclusions, per-option verdicts, final set."""

    path_id: int
    a1: ExclusionResult
    a2: Mapping[int, OptionVerdict]
    a3: frozenset[int]
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a2", dict(self.a2))
        object.__setattr__(self, "a3", frozenset(self.a3))
        m = len(self.a2)
        if set(self.a2) != set(range(m)):
            raise ValueError(f"a2 must hold one verdict per option, got keys {sorted(self.a2)}")
        if not self.a3 <= set(range(m)):
            raise ValueError(f"a3 {sorted(self.a3)} outside option range 0..{m - 1}")

    @property
    def m(self) -> int:
        return len(self.a2)


def build_graph(instance: MCQInstance, paths: Sequence[ReasoningPath]) -> dict:
    """The thought graph of an instance as a JSON-ready ``{"nodes", "edges"}`` dict.

    One central node, one node per option, and per path one exclusion
    node, one verdict node per option, and one answer node:
    ``1 + m + K*(m + 2)`` nodes in total. Each edge points from a node
    to one that builds on it.
    """
    if not paths:
        raise NoPaths("cannot build a graph without paths")
    seen_ids = [p.path_id for p in paths]
    if len(set(seen_ids)) != len(seen_ids):
        raise ValueError(f"duplicate path ids: {seen_ids}")
    for path in paths:
        if path.m != instance.m:
            raise ValueError(
                f"path {path.path_id} has {path.m} options, instance has {instance.m}"
            )

    nodes = [_node("central", "central", instance.question)]
    edges: list[tuple[str, str]] = []
    for i, text in enumerate(instance.options):
        nodes.append(_node(f"option:{i}", "option", text, option_index=i))
        edges.append(("central", f"option:{i}"))
    for path in paths:
        p = path.path_id
        excl_id = f"path{p}:exclusion"
        nodes.append(_node(excl_id, "exclusion", path.a1.raw_text, path_id=p))
        edges.append(("central", excl_id))
        answer_id = f"path{p}:answer"
        for i in range(instance.m):
            verdict_id = f"path{p}:verdict:{i}"
            verdict_text = path.a2[i].raw_text
            nodes.append(_node(verdict_id, "verdict", verdict_text, path_id=p, option_index=i))
            edges.append((f"option:{i}", verdict_id))
            edges.append((excl_id, verdict_id))
            edges.append((verdict_id, answer_id))
        answer_text = ", ".join(index_to_letter(i) for i in sorted(path.a3)) or "none"
        nodes.append(_node(answer_id, "answer", answer_text, path_id=p))
    return {"nodes": nodes, "edges": [{"src": s, "dst": d} for s, d in edges]}


def _node(
    id_: str, kind: str, text: str, path_id: int | None = None, option_index: int | None = None
) -> dict:
    return {"id": id_, "kind": kind, "text": text, "path_id": path_id, "option_index": option_index}


def _tally_and_choose(
    paths: Sequence[ReasoningPath], policy: VotePolicy
) -> tuple[frozenset[int], dict[int, int], bool]:
    if not paths:
        raise NoPaths("vote needs at least one path")
    ms = {p.m for p in paths}
    if len(ms) != 1:
        raise ValueError(f"paths disagree on option count: {sorted(ms)}")
    m = ms.pop()
    counted = [p for p in paths if not p.degenerate] or list(paths)
    n = len(counted)
    tally = {i: sum(1 for p in counted if i in p.a3) for i in range(m)}

    if policy.kind is VoteKind.PER_OPTION_MAJORITY:
        chosen = {i for i in range(m) if 2 * tally[i] > n}
        if policy.tie_break is TieBreak.PREFER_INCLUDE:
            chosen |= {i for i in range(m) if 2 * tally[i] == n}
    else:
        freq: Counter[frozenset[int]] = Counter(p.a3 for p in counted)
        top = max(freq.values())
        candidates = [s for s, c in freq.items() if c == top]
        candidates.sort(key=lambda s: (-sum(tally[i] for i in s), tuple(sorted(s))))
        chosen = set(candidates[0])

    rescued = False
    if not chosen:
        best = max(tally.values())
        chosen = {min(i for i in range(m) if tally[i] == best)}
        rescued = True
    return frozenset(chosen), tally, rescued


def vote(
    paths: Sequence[ReasoningPath], policy: VotePolicy | None = None
) -> tuple[frozenset[int], dict[int, int]]:
    """Aggregate sampled paths into one chosen option set plus the tally.

    Degenerate paths do not count unless every path is degenerate. An
    empty winning set is replaced by the max-tally option (smallest index
    on ties), so the result is never empty.
    """
    chosen, tally, _ = _tally_and_choose(paths, policy or VotePolicy())
    return chosen, tally


def _request(
    prompt: str, config: ReasonerConfig, n: int, temperature: float, path_id: int = 0,
    attempt: int = 0,
) -> CompletionRequest:
    # Distinct (run seed, path < K, attempt < 2) give distinct seeds to sampled draws.
    seed = (config.seed * config.k + path_id) * 2 + attempt if temperature > 0 else None
    return CompletionRequest(prompt, n, temperature, config.max_tokens, config.model_name, seed)


T = TypeVar("T")


def _ask(
    prompt: str,
    parse: Callable[[str], T],
    temperature: float,
    backend: Backend,
    config: ReasonerConfig,
    path_id: int = 0,
) -> tuple[T | None, str]:
    """Complete ``prompt`` with one sample and parse it; a sampled call retries once.

    ``Unparseable``, ``EmptySet`` and an empty set count as failures. Only
    a call with ``temperature`` > 0 is asked again, as a draw with its own
    seed: at temperature 0 the resend is the same request, which a cache
    answers from the failed attempt's entry and a deterministic server
    answers with the same text. Returns (parsed value or None, last text).
    """
    for attempt in range(2 if temperature > 0 else 1):
        request = _request(prompt, config, 1, temperature, path_id, attempt)
        text = backend.complete(request)[0].text
        try:
            parsed = parse(text)
        except (Unparseable, EmptySet):
            continue
        if parsed != frozenset():
            return parsed, text
    return None, text


def _exclusion(text: str, m: int) -> ExclusionResult:
    try:
        return parse_exclusions(text, m)
    except Unparseable:
        return ExclusionResult(excluded=frozenset(), raw_text=text, parse_failed=True)


def _final_set(
    chosen: frozenset[int] | None,
    instance: MCQInstance,
    a1: ExclusionResult,
    a2: Mapping[int, OptionVerdict],
) -> tuple[frozenset[int], bool]:
    """One path's step-3 final set and whether a fallback produced it.

    ``chosen`` is the parsed combining answer, None when it stayed
    unparseable or empty (see :func:`_ask`); then the path falls back to
    the options judged reasonable, then to everything not excluded, then
    to option A.
    """
    if chosen is not None:
        return chosen, False
    chosen = frozenset(i for i, v in a2.items() if v.verdict is Verdict.REASONABLE)
    if not chosen:
        chosen = frozenset(range(instance.m)) - a1.excluded
    if not chosen:
        chosen = frozenset({0})
    return chosen, True


def _single_shot(
    instance: MCQInstance, kind: PromptKind, backend: Backend, config: ReasonerConfig
) -> tuple[frozenset[int], bool]:
    prompt = render_prompt(instance, kind, max_prompt_tokens=config.max_prompt_tokens)
    chosen, _ = _ask(
        prompt, lambda t: parse_final_set(t, instance.m), config.temperature_step3, backend, config
    )
    if chosen is None:
        return frozenset(range(instance.m)), True
    return chosen, False


def _pick_loop(
    instance: MCQInstance, kind: PromptKind, backend: Backend, config: ReasonerConfig
) -> tuple[frozenset[int], bool]:
    verb = "pick" if kind is PromptKind.FORWARD_PICK else "remove"
    marked: list[int] = []
    fallback = False
    for _ in range(instance.m):
        prompt = render_prompt(
            instance, kind, taken=marked, max_prompt_tokens=config.max_prompt_tokens
        )
        parsed, _ = _ask(
            prompt, lambda t: parse_pick(t, instance.m, verb), config.temperature_step3,
            backend, config,
        )
        if parsed is None:
            fallback = True
            break
        pick, more = parsed
        # A repeated pick leaves the next prompt unchanged, and at the default
        # temperature 0 its reply would repeat too; stop as "More: no" would.
        if pick in marked:
            break
        marked.append(pick)
        if not more or len(marked) == instance.m:
            break
    if kind is PromptKind.FORWARD_PICK:
        chosen = frozenset(marked)
    else:
        chosen = frozenset(range(instance.m)) - set(marked)
    if not chosen:
        return frozenset({0}), True
    return chosen, fallback


# Each baseline strategy: its runner, returning (chosen, fallback_used), and its prompt.
_BASELINES = {
    Strategy.STANDARD: (_single_shot, PromptKind.STANDARD),
    Strategy.COT: (_single_shot, PromptKind.VANILLA_COT),
    Strategy.FORWARD: (_pick_loop, PromptKind.FORWARD_PICK),
    Strategy.BACKWARD: (_pick_loop, PromptKind.BACKWARD_PICK),
}


def run_strategy(
    instance: MCQInstance,
    strategy: Strategy,
    backend: Backend,
    config: ReasonerConfig | None = None,
    pool: Executor | None = None,
) -> Prediction:
    """Produce a prediction for one instance under the given strategy.

    ``rex_got`` runs every call after its step-1 call on ``pool``, a
    thread pool whose tasks never wait on each other; each task asks one
    question, and the step-1 retries are asked together, each as a draw
    of its own. One instance keeps at most K·m calls in flight. Without a
    pool, one that wide is created for the call. Greedy step-2 and step-3
    questions that several paths ask alike are asked once, so ``backend``
    needs no wrapper to share them. The other strategies make every call
    on the calling thread. A backend error reaches the caller as the
    backend raised it.
    """
    config = config or ReasonerConfig()
    if strategy in _BASELINES:
        runner, kind = _BASELINES[strategy]
        chosen, fallback = runner(instance, kind, backend, config)
        return Prediction(
            instance_id=instance.id, strategy=strategy, chosen=chosen, fallback_used=fallback
        )
    if pool is None:
        with ThreadPoolExecutor(max_workers=config.k * instance.m) as own_pool:
            return _rex_got(instance, backend, config, own_pool)
    return _rex_got(instance, backend, config, pool)


def _rex_got(
    instance: MCQInstance, backend: Backend, config: ReasonerConfig, pool: Executor
) -> Prediction:
    # Step 1 is one n=K call on this thread, each sample parsed once; a sample
    # that did not parse stays a parse-failed result until its retry returns.
    prompt = render_prompt(
        instance, PromptKind.STEP1_EXCLUSION, max_prompt_tokens=config.max_prompt_tokens
    )
    completions = backend.complete(_request(prompt, config, config.k, config.temperature_step1))
    exclusions = [_exclusion(c.text, instance.m) for c in completions]
    # Greedy calls by what their prompt is rendered from: paths that ask the
    # same question share its call and render it once, so one future may
    # answer several paths. Only this thread touches it, so it needs no lock.
    shared: dict[tuple, Future] = {}
    running: set[Future] = set()  # calls asked and not yet seen to finish

    def ask(
        path_id: int, kind: PromptKind, key: tuple, parse: Callable[[str], object],
        temperature: float, **stage_inputs,
    ) -> Future:
        future = shared.get(key)
        if future is None:
            # Rendered on this thread, not on the pool: many pool threads
            # rendering at once raised peak memory.
            prompt = render_prompt(
                instance, kind, max_prompt_tokens=config.max_prompt_tokens, **stage_inputs
            )
            future = pool.submit(_ask, prompt, parse, temperature, backend, config, path_id)
            if temperature == 0:
                shared[key] = future
        running.add(future)
        return future

    def verdicts(path_id: int, a1: ExclusionResult) -> list[Future]:
        return [
            ask(path_id, PromptKind.STEP2_VERDICT, (a1.raw_text, i), parse_verdict,
                config.temperature_step2, a1=a1.raw_text, option_index=i)
            for i in range(instance.m)
        ]

    try:
        # A sample that did not parse is asked again once if step 1 samples (see
        # _ask), as a draw of its own; else its path goes on with its own text.
        # The retries are asked before any verdict: they are the longest chain.
        t1 = config.temperature_step1
        retries = {  # each retry's future, to the path it answers
            pool.submit(backend.complete, _request(prompt, config, 1, t1, path_id, 1)): path_id
            for path_id, a1 in enumerate(exclusions) if a1.parse_failed and t1 > 0
        }
        running.update(retries)
        # Step 2 is a K×m grid of verdict calls; a path's row is asked once
        # its exclusion parsed, so a sample that needs a retry holds no other path.
        grid = [
            None if i in retries.values() else verdicts(i, a1) for i, a1 in enumerate(exclusions)
        ]
        # Step 3 is one combining call per path, asked once that path's row is done.
        combining: list[Future | None] = [None] * len(grid)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            running -= done
            for future in done:
                result = future.result()  # a failed call fails the instance at once
                if future in retries:
                    path_id = retries[future]
                    exclusions[path_id] = _exclusion(result[0].text, instance.m)
                    grid[path_id] = verdicts(path_id, exclusions[path_id])
            for path_id, (a1, row) in enumerate(zip(exclusions, grid)):
                if row and combining[path_id] is None and all(f.done() for f in row):
                    texts = {i: f.result()[1] for i, f in enumerate(row)}
                    combining[path_id] = ask(
                        path_id, PromptKind.STEP3_COMBINE, (a1.raw_text, tuple(texts.values())),
                        lambda t: parse_final_set(t, instance.m), config.temperature_step3,
                        a1=a1.raw_text, a2=texts,
                    )
    finally:
        # On failure, no call of this instance may outlive it.
        for future in running:
            future.cancel()
        wait(running)

    paths = []
    for path_id, (a1, row, combined) in enumerate(zip(exclusions, grid, combining)):
        # A verdict that stayed unparseable abstains.
        a2 = {
            i: OptionVerdict(verdict=Verdict.ABSTAIN if parsed is None else parsed, raw_text=text)
            for i, (parsed, text) in enumerate(f.result() for f in row)
        }
        a3, step3_fallback = _final_set(combined.result()[0], instance, a1, a2)
        degenerate = (
            a1.parse_failed
            or any(v.verdict is Verdict.ABSTAIN for v in a2.values())
            or step3_fallback
        )
        paths.append(ReasoningPath(path_id=path_id, a1=a1, a2=a2, a3=a3, degenerate=degenerate))
    chosen, tally, rescued = _tally_and_choose(paths, config.vote_policy)
    return Prediction(
        instance_id=instance.id,
        strategy=Strategy.REX_GOT,
        chosen=chosen,
        paths=tuple(paths),
        vote_tally=tally,
        fallback_used=rescued or any(p.degenerate for p in paths),
    )


def prediction_record(prediction: Prediction) -> dict:
    """The JSON fields a prediction's ``predictions.jsonl`` and ``traces.jsonl`` lines share."""
    return {
        "instance_id": prediction.instance_id,
        "strategy": prediction.strategy.value,
        "chosen": sorted(prediction.chosen),
        "chosen_labels": [index_to_letter(i) for i in sorted(prediction.chosen)],
        "vote_tally": {str(i): v for i, v in sorted(prediction.vote_tally.items())},
        "fallback_used": prediction.fallback_used,
    }


def build_trace(instance: MCQInstance, prediction: Prediction, graph: dict | None = None) -> dict:
    """The JSON-ready trace of one prediction, for offline inspection.

    ``rexgot run`` writes it as one line of ``traces.jsonl``, in the order of
    ``predictions.jsonl``. ``graph`` is the instance's :func:`build_graph`
    dict, embedded as is.
    """
    return {
        **prediction_record(prediction),
        "gold": sorted(instance.gold),
        "paths": [
            {
                "path_id": p.path_id,
                "excluded": sorted(p.a1.excluded),
                "verdicts": {
                    str(i): p.a2[i].verdict.value for i in sorted(p.a2)
                },
                "final_set": sorted(p.a3),
                "degenerate": p.degenerate,
            }
            for p in prediction.paths
        ],
        "graph": graph,
    }
