from __future__ import annotations

import hashlib
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BOB_EXCLUSION_TEXT,
    BOB_COMBINE_TEXT,
    BOB_VERDICT_TEXTS,
    make_instance,
    scripted_rex_backend,
)
from rexgot.backend import CachingBackend, Completion, ScriptedBackend, TransportError
from rexgot.model import Strategy
from rexgot.parsing import ExclusionResult, OptionVerdict, Verdict
from rexgot.prompts import EXCLUSION_HEADER, VERDICTS_HEADER, PromptKind, render_prompt
from rexgot.reasoner import (
    NoPaths,
    ReasonerConfig,
    ReasoningPath,
    TieBreak,
    VoteKind,
    VotePolicy,
    build_graph,
    build_trace,
    run_strategy,
    vote,
)


def make_path(path_id, a3, m, degenerate=False):
    a1 = ExclusionResult(excluded=frozenset(), raw_text="")
    a2 = {
        i: OptionVerdict(verdict=Verdict.REASONABLE if i in a3 else Verdict.UNREASONABLE)
        for i in range(m)
    }
    return ReasoningPath(path_id=path_id, a1=a1, a2=a2, a3=frozenset(a3), degenerate=degenerate)


class CountingWrapper:
    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


# --- voting ---------------------------------------------------------------


def test_vote_majority_direct_count():
    paths = [make_path(i, s, m=3) for i, s in enumerate([{0, 1}, {0}, {0, 1}])]
    chosen, tally = vote(paths, VotePolicy(VoteKind.PER_OPTION_MAJORITY))
    assert chosen == frozenset({0, 1})
    assert tally == {0: 3, 1: 2, 2: 0}


def test_vote_two_path_tie_prefer_exclude_rescues_smallest_index():
    # Hand-executed table: tallies A:1 B:1 over n=2; nothing exceeds half;
    # prefer_exclude keeps the half-ties out; rescue picks the smallest
    # index among the max tally.
    paths = [make_path(0, {0}, m=2), make_path(1, {1}, m=2)]
    chosen, tally = vote(paths, VotePolicy(VoteKind.PER_OPTION_MAJORITY, TieBreak.PREFER_EXCLUDE))
    assert chosen == frozenset({0})
    assert tally == {0: 1, 1: 1}


def test_vote_two_path_tie_prefer_include_keeps_both():
    paths = [make_path(0, {0}, m=2), make_path(1, {1}, m=2)]
    chosen, _ = vote(paths, VotePolicy(VoteKind.PER_OPTION_MAJORITY, TieBreak.PREFER_INCLUDE))
    assert chosen == frozenset({0, 1})


def test_vote_single_path_is_identity():
    paths = [make_path(0, {1, 2}, m=4)]
    for kind in VoteKind:
        chosen, _ = vote(paths, VotePolicy(kind))
        assert chosen == frozenset({1, 2})


def test_vote_plurality_most_frequent_set_wins():
    paths = [make_path(i, s, m=3) for i, s in enumerate([{0}, {0}, {1, 2}])]
    chosen, _ = vote(paths, VotePolicy(VoteKind.PATH_PLURALITY))
    assert chosen == frozenset({0})


def test_vote_plurality_tie_broken_by_summed_support():
    paths = [make_path(i, s, m=3) for i, s in enumerate([{0, 1}, {2}])]
    chosen, _ = vote(paths, VotePolicy(VoteKind.PATH_PLURALITY))
    assert chosen == frozenset({0, 1})


def test_vote_plurality_final_tie_lexicographic():
    paths = [make_path(i, s, m=3) for i, s in enumerate([{1}, {0}])]
    chosen, _ = vote(paths, VotePolicy(VoteKind.PATH_PLURALITY))
    assert chosen == frozenset({0})


def test_vote_ignores_degenerate_paths_unless_all_degenerate():
    paths = [
        make_path(0, {0}, m=3),
        make_path(1, {1}, m=3, degenerate=True),
        make_path(2, {1}, m=3, degenerate=True),
    ]
    chosen, tally = vote(paths, VotePolicy())
    assert chosen == frozenset({0})
    assert tally == {0: 1, 1: 0, 2: 0}

    all_degenerate = [make_path(i, {1}, m=3, degenerate=True) for i in range(3)]
    chosen, _ = vote(all_degenerate, VotePolicy())
    assert chosen == frozenset({1})


def test_vote_empty_paths_error():
    with pytest.raises(NoPaths):
        vote([], VotePolicy())


def test_vote_all_empty_a3_rescues_option_zero():
    paths = [make_path(i, set(), m=4) for i in range(3)]
    chosen, tally = vote(paths, VotePolicy())
    assert chosen == frozenset({0})
    assert all(v == 0 for v in tally.values())


@st.composite
def path_lists(draw, min_paths=1):
    m = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=min_paths, max_value=7))
    paths = []
    for pid in range(k):
        a3 = draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
        degenerate = draw(st.booleans())
        paths.append(make_path(pid, a3, m, degenerate))
    return paths


POLICIES = [VotePolicy(kind, tie) for kind in VoteKind for tie in TieBreak]


@given(paths=path_lists(), data=st.data())
def test_vote_permutation_invariant(paths, data):
    permuted = data.draw(st.permutations(paths))
    for policy in POLICIES:
        assert vote(paths, policy) == vote(permuted, policy)


@given(
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_vote_unanimity_recovery(m, k, data):
    common = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
    paths = [make_path(i, common, m) for i in range(k)]
    for policy in POLICIES:
        chosen, _ = vote(paths, policy)
        assert chosen == frozenset(common)


@given(paths=path_lists(), data=st.data())
def test_vote_majority_monotone_under_superset_path(paths, data):
    for tie in TieBreak:
        policy = VotePolicy(VoteKind.PER_OPTION_MAJORITY, tie)
        chosen, _ = vote(paths, policy)
        m = paths[0].m
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1)))
        superset = frozenset(chosen) | extra
        grown = list(paths) + [make_path(len(paths), superset, m)]
        grown_chosen, _ = vote(grown, policy)
        assert chosen <= grown_chosen


@given(paths=path_lists())
def test_vote_never_returns_empty(paths):
    for policy in POLICIES:
        chosen, _ = vote(paths, policy)
        assert chosen


# --- graph ----------------------------------------------------------------


def verdict_options_into(graph, node_id):
    """Option indices of the verdict nodes with an edge into ``node_id``."""
    nodes = {n["id"]: n for n in graph["nodes"]}
    return sorted(
        nodes[e["src"]]["option_index"]
        for e in graph["edges"]
        if e["dst"] == node_id and nodes[e["src"]]["kind"] == "verdict"
    )


def test_graph_node_count_m5_k3(bob_movie_instance):
    paths = [make_path(i, {0, 1, 4}, m=5) for i in range(3)]
    graph = build_graph(bob_movie_instance, paths)
    assert len(graph["nodes"]) == 27  # 1 + 5 + 3 * (5 + 2)


def test_graph_node_count_smallest_case():
    instance = make_instance(m=2)
    graph = build_graph(instance, [make_path(0, {0}, m=2)])
    assert len(graph["nodes"]) == 7


def test_graph_duplicate_path_ids_rejected(bob_movie_instance):
    paths = [make_path(0, {0}, m=5), make_path(0, {1}, m=5)]
    with pytest.raises(ValueError):
        build_graph(bob_movie_instance, paths)


def test_graph_each_path_touches_one_verdict_per_option(bob_movie_instance):
    paths = [make_path(i, {0, 1}, m=5) for i in range(3)]
    graph = build_graph(bob_movie_instance, paths)
    for path in paths:
        assert verdict_options_into(graph, f"path{path.path_id}:answer") == list(range(5))


def test_graph_has_one_central_and_m_option_nodes(bob_movie_instance):
    graph = build_graph(bob_movie_instance, [make_path(0, {0}, m=5)])
    kinds = [n["kind"] for n in graph["nodes"]]
    assert kinds.count("central") == 1
    assert kinds.count("option") == 5


# --- steps over scripted backends -----------------------------------------


def step1_results(instance, backend, config):
    """The K exclusion results of a ``rex_got`` run."""
    prediction = run_strategy(instance, Strategy.REX_GOT, backend, config)
    return [path.a1 for path in prediction.paths]


def test_step1_bob_movie_exclusions(bob_movie_instance):
    backend = scripted_rex_backend(bob_movie_instance)
    results = step1_results(bob_movie_instance, backend, ReasonerConfig(k=1))
    assert len(results) == 1
    assert results[0].excluded == frozenset({2, 3})
    assert not results[0].parse_failed


def test_step1_k3_identical_results(bob_movie_instance):
    backend = scripted_rex_backend(bob_movie_instance)
    results = step1_results(bob_movie_instance, backend, ReasonerConfig(k=3))
    assert len(results) == 3
    assert results[0] == results[1] == results[2]


def test_step1_garbage_retries_then_degenerates(bob_movie_instance):
    backend = ScriptedBackend(default_responses=["mmm interesting question"])
    wrapper = CountingWrapper(backend)
    results = step1_results(bob_movie_instance, wrapper, ReasonerConfig(k=1))
    assert results[0].parse_failed
    assert results[0].excluded == frozenset()
    assert len(step_requests(wrapper.requests, 1)) == 2  # first sample plus one retry


def test_step1_greedy_unparseable_samples_are_not_retried():
    # At temperature 0 an n=1 resend would repeat the greedy reply, so each
    # failed sample's path goes on with its own text at once.
    instance = make_instance(m=3)
    wrapper = CountingWrapper(ScriptedBackend(default_responses=["shrug"]))
    config = ReasonerConfig(k=3, temperature_step1=0.0)
    prediction = run_strategy(instance, Strategy.REX_GOT, wrapper, config)
    step1 = step_requests(wrapper.requests, 1)
    assert [(r.n_samples, r.temperature) for r in step1] == [(3, 0.0)]
    # The three paths ask equal greedy questions: m verdict calls and one combining call.
    assert len(wrapper.requests) == 1 + instance.m + 1
    assert [(p.a1.parse_failed, p.a1.raw_text, p.degenerate) for p in prediction.paths] == [
        (True, "shrug", True)
    ] * 3
    assert prediction.chosen == frozenset(range(instance.m))


def one_path(instance, backend, config=ReasonerConfig()):
    """Run rex_got with K=1 on a one-worker pool and return its only path.

    The one worker runs the m verdict tasks in option order, each with its
    retry, and then the step-3 task, so a QueuedBackend sees a fixed order.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        prediction = run_strategy(instance, Strategy.REX_GOT, backend, replace(config, k=1), pool)
    return prediction.paths[0]


def step_requests(requests, step):
    """The step-1, step-2 or step-3 requests among ``requests``, in order."""
    if step == 1:
        return [r for r in requests if EXCLUSION_HEADER not in r.prompt]
    if step == 3:
        return [r for r in requests if VERDICTS_HEADER in r.prompt]
    return [
        r for r in requests if EXCLUSION_HEADER in r.prompt and VERDICTS_HEADER not in r.prompt
    ]


def test_step2_issues_exactly_m_calls(bob_movie_instance):
    backend = CountingWrapper(scripted_rex_backend(bob_movie_instance))
    a1 = ExclusionResult(excluded=frozenset({2, 3}), raw_text=BOB_EXCLUSION_TEXT)
    path = one_path(bob_movie_instance, backend)
    assert path.a1 == a1
    step2 = step_requests(backend.requests, 2)
    assert len(step2) == bob_movie_instance.m
    assert all(req.n_samples == 1 for req in step2)
    expected = {0: Verdict.REASONABLE, 1: Verdict.REASONABLE, 2: Verdict.UNREASONABLE,
                3: Verdict.UNREASONABLE, 4: Verdict.REASONABLE}
    assert {i: v.verdict for i, v in path.a2.items()} == expected


def test_step2_evaluates_excluded_options_too(bob_movie_instance):
    path = one_path(bob_movie_instance, scripted_rex_backend(bob_movie_instance))
    assert path.a1.excluded == frozenset({2, 3})
    assert set(path.a2) == set(range(5))  # exclusions inform, never prune


def test_step2_unparseable_twice_abstains():
    instance = make_instance(m=2)
    backend = ScriptedBackend(default_responses=["shrug"])
    backend.register_script(
        responses=["Excluded: none"], prompt=render_prompt(instance, PromptKind.STEP1_EXCLUSION)
    )
    wrapper = CountingWrapper(backend)
    path = one_path(instance, wrapper)
    assert path.a1 == ExclusionResult(excluded=frozenset(), raw_text="Excluded: none")
    assert all(v.verdict is Verdict.ABSTAIN for v in path.a2.values())
    assert len(step_requests(wrapper.requests, 2)) == 2  # one greedy try per option


def test_step3_bob_movie_answer(bob_movie_instance):
    backend = scripted_rex_backend(bob_movie_instance)
    path = one_path(bob_movie_instance, backend)
    assert path.a1 == ExclusionResult(excluded=frozenset({2, 3}), raw_text=BOB_EXCLUSION_TEXT)
    assert path.a2 == {
        i: OptionVerdict(Verdict.REASONABLE if i in (0, 1, 4) else Verdict.UNREASONABLE,
                         raw_text=BOB_VERDICT_TEXTS[i])
        for i in range(5)
    }
    assert path.a3 == frozenset({0, 1, 4})
    assert not path.degenerate


def test_step3_singleton_answer():
    instance = make_instance(m=3)
    backend = scripted_rex_backend(
        instance, step1_text="Excluded: none",
        verdict_texts={i: f"v{i}\nVerdict: reasonable" for i in range(3)},
        step3_text="Answer: A",
    )
    path = one_path(instance, backend)
    assert all(v.verdict is Verdict.REASONABLE for v in path.a2.values())
    assert path.a3 == frozenset({0})
    assert not path.degenerate


def test_step3_unparseable_falls_back_to_reasonable_verdicts():
    instance = make_instance(m=2)
    backend = scripted_rex_backend(
        instance, step1_text="Excluded: none",
        verdict_texts={0: "fine\nVerdict: reasonable", 1: "bad\nVerdict: unreasonable"},
        step3_text="garbled nonsense output",
    )
    path = one_path(instance, backend)
    assert [path.a2[i].verdict for i in range(2)] == [Verdict.REASONABLE, Verdict.UNREASONABLE]
    assert path.a3 == frozenset({0})
    assert path.degenerate


def test_step3_fallback_chain_bottoms_out():
    instance = make_instance(m=2)
    backend = scripted_rex_backend(
        instance, step1_text="Excluded: A, B",
        verdict_texts={i: "no\nVerdict: unreasonable" for i in range(2)},
        step3_text="garbled",
    )
    path = one_path(instance, backend)
    assert path.a1.excluded == frozenset({0, 1})
    assert all(v.verdict is Verdict.UNREASONABLE for v in path.a2.values())
    assert path.a3 == frozenset({0})
    assert path.degenerate


# --- strategies -------------------------------------------------------------


def test_rex_got_bob_movie_unanimous(bob_movie_instance):
    backend = scripted_rex_backend(bob_movie_instance)
    prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, ReasonerConfig(k=3))
    assert prediction.chosen == frozenset({0, 1, 4})
    assert prediction.fallback_used is False
    assert len(prediction.paths) == 3
    assert prediction.vote_tally == {0: 3, 1: 3, 2: 0, 3: 0, 4: 3}


class StepBackend:
    """Step 1 samples ``a1_texts`` in turn; every verdict is reasonable, every answer A."""

    def __init__(self, a1_texts):
        self.a1_texts = a1_texts

    def complete(self, request):
        if VERDICTS_HEADER in request.prompt:
            texts = ["Answer: A"] * request.n_samples
        elif EXCLUSION_HEADER in request.prompt:
            texts = ["Verdict: reasonable"] * request.n_samples
        else:
            texts = self.a1_texts[: request.n_samples]
        return [Completion(text=text) for text in texts]


def test_rex_got_call_budget(bob_movie_instance, monkeypatch):
    import rexgot.reasoner as reasoner

    # Each greedy question is rendered once, however many paths ask it.
    renders = []

    def counting_render(*args, **kwargs):
        renders.append(args)
        return render_prompt(*args, **kwargs)

    monkeypatch.setattr(reasoner, "render_prompt", counting_render)
    k, m = 3, bob_movie_instance.m
    # K distinct step-1 texts: one batched step-1 request, then per path m verdicts + 1 combine.
    backend = CountingWrapper(StepBackend(["Excluded: A", "Excluded: B", "Excluded: C"]))
    prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, ReasonerConfig(k=k))
    assert len(backend.requests) == len(renders) == 1 + k * (m + 1)
    assert backend.requests[0].n_samples == k
    assert [p.a1.excluded for p in prediction.paths] == [{0}, {1}, {2}]
    # K identical step-1 texts ask every path the same questions, once each.
    renders.clear()
    backend = CountingWrapper(scripted_rex_backend(bob_movie_instance))
    prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, ReasonerConfig(k=k))
    assert len(backend.requests) == len(renders) == 1 + m + 1
    assert backend.requests[0].n_samples == k
    assert len(prediction.paths) == k
    assert prediction.vote_tally == {0: k, 1: k, 2: 0, 3: 0, 4: k}


def test_rex_got_sampled_step2_calls_are_never_shared(bob_movie_instance):
    k, m = 3, bob_movie_instance.m
    backend = CountingWrapper(scripted_rex_backend(bob_movie_instance))
    config = ReasonerConfig(k=k, temperature_step2=0.5)
    prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, config)
    step2 = step_requests(backend.requests, 2)
    assert len(step2) == k * m
    assert all(r.temperature == 0.5 for r in step2)
    assert len({r.prompt for r in step2}) == m
    # Step 3 stays greedy: the K equal combining prompts still share one call.
    assert len(step_requests(backend.requests, 3)) == 1
    assert prediction.chosen == frozenset({0, 1, 4})


def test_standard_strategy_single_call(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.STANDARD)
    backend = ScriptedBackend()
    backend.register_script(responses=["Answer: A, B, E"], prompt=prompt)
    wrapper = CountingWrapper(backend)
    prediction = run_strategy(bob_movie_instance, Strategy.STANDARD, wrapper)
    assert prediction.chosen == frozenset({0, 1, 4})
    assert len(wrapper.requests) == 1
    assert prediction.paths == ()


def test_cot_strategy(bob_movie_instance):
    prompt = render_prompt(bob_movie_instance, PromptKind.VANILLA_COT)
    backend = ScriptedBackend()
    backend.register_script(
        responses=["Let me think. The correct options are A, B and E."], prompt=prompt
    )
    prediction = run_strategy(bob_movie_instance, Strategy.COT, backend)
    assert prediction.chosen == frozenset({0, 1, 4})


def test_standard_unparseable_falls_back_to_full_set():
    instance = make_instance(m=3)
    backend = ScriptedBackend(default_responses=["blank stare"])
    prediction = run_strategy(instance, Strategy.STANDARD, backend)
    assert prediction.chosen == frozenset({0, 1, 2})
    assert prediction.fallback_used


@pytest.mark.parametrize("strategy", [Strategy.REX_GOT, Strategy.STANDARD])
def test_empty_answer_is_a_failed_parse(bob_movie_instance, strategy):
    # "Answer: none" names no option: greedy, it is not retried, and the strategy falls back.
    if strategy is Strategy.REX_GOT:
        inner = scripted_rex_backend(bob_movie_instance, step3_text="Answer: none")
        answer_prompt = render_prompt(
            bob_movie_instance, PromptKind.STEP3_COMBINE, a1=BOB_EXCLUSION_TEXT,
            a2=BOB_VERDICT_TEXTS,
        )
        calls, fallback = 1 + 5 + 1, frozenset({0, 1, 4})  # the options judged reasonable
    else:
        inner = ScriptedBackend(default_responses=["Answer: none"])
        answer_prompt = render_prompt(bob_movie_instance, PromptKind.STANDARD)
        calls, fallback = 1, frozenset(range(5))  # the full set
    backend = CountingWrapper(inner)
    with ThreadPoolExecutor(max_workers=1) as pool:
        prediction = run_strategy(
            bob_movie_instance, strategy, backend, ReasonerConfig(k=1), pool
        )
    assert [r.prompt for r in backend.requests].count(answer_prompt) == 1
    assert len(backend.requests) == calls
    assert prediction.chosen == fallback
    assert prediction.fallback_used
    if strategy is Strategy.REX_GOT:
        assert prediction.paths[0].a3 == fallback
        assert prediction.paths[0].degenerate


def test_forward_pick_then_stop(bob_movie_instance):
    backend = ScriptedBackend()
    backend.register_script(
        responses=["Pick: A\nMore: no"],
        prompt=render_prompt(bob_movie_instance, PromptKind.FORWARD_PICK, taken=[]),
    )
    prediction = run_strategy(bob_movie_instance, Strategy.FORWARD, backend)
    assert prediction.chosen == frozenset({0})
    assert not prediction.fallback_used


def test_backward_removes_c_d_then_stop(bob_movie_instance):
    backend = ScriptedBackend()
    backend.register_script(
        responses=["Remove: C\nMore: yes"],
        prompt=render_prompt(bob_movie_instance, PromptKind.BACKWARD_PICK, taken=[]),
    )
    backend.register_script(
        responses=["Remove: D\nMore: no"],
        prompt=render_prompt(bob_movie_instance, PromptKind.BACKWARD_PICK, taken=[2]),
    )
    prediction = run_strategy(bob_movie_instance, Strategy.BACKWARD, backend)
    assert prediction.chosen == frozenset({0, 1, 4})


def test_forward_adversarial_never_stops_terminates_within_m(bob_movie_instance):
    backend = CountingWrapper(ScriptedBackend(default_responses=["Pick: A\nMore: yes"]))
    prediction = run_strategy(bob_movie_instance, Strategy.FORWARD, backend)
    assert prediction.chosen == frozenset({0})
    assert len(backend.requests) <= bob_movie_instance.m


def test_backward_adversarial_never_stops_terminates_within_m(bob_movie_instance):
    backend = CountingWrapper(ScriptedBackend(default_responses=["Remove: B\nMore: yes"]))
    prediction = run_strategy(bob_movie_instance, Strategy.BACKWARD, backend)
    assert prediction.chosen == frozenset({0, 2, 3, 4})
    assert len(backend.requests) <= bob_movie_instance.m


def test_forward_repeated_pick_ends_the_loop(bob_movie_instance):
    # Re-picking A leaves the next prompt equal to the second one, so the loop ends.
    backend = CountingWrapper(ScriptedBackend(default_responses=["Pick: A\nMore: yes"]))
    prediction = run_strategy(bob_movie_instance, Strategy.FORWARD, backend)
    assert len(backend.requests) == 2
    assert prediction.chosen == frozenset({0})
    assert not prediction.fallback_used


def test_backward_removing_everything_rescues():
    instance = make_instance(m=2)
    backend = ScriptedBackend()
    backend.register_script(
        responses=["Remove: A\nMore: yes"],
        prompt=render_prompt(instance, PromptKind.BACKWARD_PICK, taken=[]),
    )
    backend.register_script(
        responses=["Remove: B\nMore: yes"],
        prompt=render_prompt(instance, PromptKind.BACKWARD_PICK, taken=[0]),
    )
    prediction = run_strategy(instance, Strategy.BACKWARD, backend)
    assert prediction.chosen == frozenset({0})
    assert prediction.fallback_used


def test_trace_document_shape(bob_movie_instance):
    backend = scripted_rex_backend(bob_movie_instance)
    prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, ReasonerConfig(k=2))
    graph = build_graph(bob_movie_instance, prediction.paths)
    trace = build_trace(bob_movie_instance, prediction, graph)
    assert trace["chosen_labels"] == ["A", "B", "E"]
    assert len(trace["paths"]) == 2
    assert len(trace["graph"]["nodes"]) == 1 + 5 + 2 * 7


# --- fan-out of the rex_got calls ------------------------------------------


class SleepyBackend:
    """Delays each call by ``delay(prompt)`` seconds and records peak concurrency."""

    def __init__(self, inner, delay, fail_prompt=None):
        self.inner = inner
        self.delay = delay
        self.fail_prompt = fail_prompt
        self.calls = 0
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if request.prompt == self.fail_prompt:
                raise TransportError("injected failure")
            time.sleep(self.delay(request.prompt))
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.in_flight -= 1


def prompt_rank(prompt):
    return int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:8], 16) % 8


SECOND_EXCLUSION_TEXT = "Option A does not fit what Bob said.\nExcluded: A"


def two_exclusion_backend(instance):
    """Step 1 samples two different exclusion texts (cycling over K paths);
    the second path gets one unparseable verdict, so it abstains once."""
    backend = ScriptedBackend()
    a1_texts = [BOB_EXCLUSION_TEXT, SECOND_EXCLUSION_TEXT]
    backend.register_script(
        responses=a1_texts, prompt=render_prompt(instance, PromptKind.STEP1_EXCLUSION)
    )
    for p, a1 in enumerate(a1_texts):
        verdicts = dict(BOB_VERDICT_TEXTS)
        if p == 1:
            verdicts[0] = "A clashes with the office story.\nVerdict: unreasonable"
            verdicts[4] = "hard to say"
        for i, text in verdicts.items():
            backend.register_script(
                responses=[text],
                prompt=render_prompt(instance, PromptKind.STEP2_VERDICT, a1=a1, option_index=i),
            )
        backend.register_script(
            responses=[BOB_COMBINE_TEXT if p == 0 else "Answer: B"],
            prompt=render_prompt(instance, PromptKind.STEP3_COMBINE, a1=a1, a2=verdicts),
        )
    return backend


def test_rex_got_fan_out_result_independent_of_completion_order(bob_movie_instance):
    config = ReasonerConfig(k=3)
    k, m = config.k, bob_movie_instance.m
    results, calls = [], []
    for delay in (lambda p: prompt_rank(p) * 0.002, lambda p: (7 - prompt_rank(p)) * 0.002):
        backend = SleepyBackend(two_exclusion_backend(bob_movie_instance), delay)
        prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, config)
        assert 1 < backend.peak <= k * m
        calls.append(backend.calls)
        graph = build_graph(bob_movie_instance, prediction.paths)
        results.append((prediction, build_trace(bob_movie_instance, prediction, graph)))
    # Paths 0 and 2 share their exclusion text, so they share their step-2 and
    # step-3 calls; path 1's one bad verdict is greedy, so it is not retried.
    assert calls == [1 + 2 * m + 2] * 2
    (first, first_trace), (second, second_trace) = results
    assert first == second
    assert first.paths == second.paths
    assert [p.path_id for p in first.paths] == [0, 1, 2]
    assert first.vote_tally == second.vote_tally == {0: 2, 1: 2, 2: 0, 3: 0, 4: 2}
    assert first_trace == second_trace
    assert [p.degenerate for p in first.paths] == [False, True, False]


def test_rex_got_fan_out_stays_within_k_times_m_on_a_shared_pool(bob_movie_instance):
    config = ReasonerConfig(k=3)
    backend = SleepyBackend(two_exclusion_backend(bob_movie_instance), lambda p: 0.01)
    with ThreadPoolExecutor(max_workers=64) as pool:
        prediction = run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, config, pool)
    assert prediction.chosen == frozenset({0, 1, 4})
    assert 1 < backend.peak <= config.k * bob_movie_instance.m


class HoldingBackend(StepBackend):
    """Two step-1 texts; the second path's verdict calls wait for a step-3 call.

    Each wait gives up after ``timeout`` seconds and records whether a
    step-3 prompt was asked before then.
    """

    def __init__(self, timeout):
        super().__init__(["Excluded: A", "Excluded: B"])
        self.timeout = timeout
        self.step3_asked = threading.Event()
        self.held = []

    def complete(self, request):
        if VERDICTS_HEADER in request.prompt:
            self.step3_asked.set()
        elif "Excluded: B" in request.prompt:
            self.held.append(self.step3_asked.wait(self.timeout))
        return super().complete(request)


def test_rex_got_asks_a_paths_step3_once_its_own_verdicts_are_in():
    # Path 1's verdicts are held until path 0's combining call has been asked,
    # so a run that waits for every verdict before any step 3 would time out.
    instance = make_instance(m=4)
    backend = HoldingBackend(timeout=5)
    prediction = run_strategy(instance, Strategy.REX_GOT, backend, ReasonerConfig(k=2))
    assert backend.held == [True] * instance.m
    assert [p.a1.excluded for p in prediction.paths] == [{0}, {1}]
    assert prediction.chosen == frozenset({0})


def is_step1_retry(request):
    return EXCLUSION_HEADER not in request.prompt and request.n_samples == 1


class RetryHoldingBackend(StepBackend):
    """Step 1 samples ``garbled`` and ``Excluded: A``; the retry of the first
    waits for a verdict call of the second path.

    The wait gives up after ``timeout`` seconds and records whether such a
    verdict was asked before then. The retry answers ``Excluded: B``.
    """

    def __init__(self, timeout):
        super().__init__(["garbled", "Excluded: A"])
        self.timeout = timeout
        self.verdict_asked = threading.Event()
        self.held = []

    def complete(self, request):
        if is_step1_retry(request):
            self.held.append(self.verdict_asked.wait(self.timeout))
            return [Completion(text="Excluded: B")]
        if "Excluded: A" in request.prompt:
            self.verdict_asked.set()
        return super().complete(request)


def test_rex_got_parsed_paths_do_not_wait_for_a_step1_retry():
    # The retry is held until the parsed path has asked a verdict, so a run
    # that retries every sample before any step 2 would time out.
    instance = make_instance(m=4)
    backend = RetryHoldingBackend(timeout=5)
    prediction = run_strategy(instance, Strategy.REX_GOT, backend, ReasonerConfig(k=2))
    assert backend.held == [True]
    assert [p.a1.excluded for p in prediction.paths] == [{1}, {0}]
    assert not any(p.a1.parse_failed for p in prediction.paths)


class LateRetryBackend(StepBackend):
    """Step 1 samples ``garbled`` twice. Each retry answers by its seed: path 0's
    (seed 1) ``Excluded: B`` and path 1's (seed 3) ``Excluded: C``.

    The retry of seed ``late_seed`` waits until all verdicts of the other retried
    path were asked. The wait gives up after ``timeout`` seconds and records
    whether those verdicts were asked before then.
    """

    REPLIES = {1: "Excluded: B", 3: "Excluded: C"}

    def __init__(self, timeout, m, late_seed):
        super().__init__(["garbled", "garbled"])
        self.timeout = timeout
        self.m = m
        self.late_seed = late_seed
        (early_seed,) = set(self.REPLIES) - {late_seed}
        self.early_reply = self.REPLIES[early_seed]
        self.lock = threading.Lock()
        self.early_verdicts = 0
        self.verdicts_asked = threading.Event()
        self.held = []

    def complete(self, request):
        if is_step1_retry(request):
            if request.seed == self.late_seed:
                self.held.append(self.verdicts_asked.wait(self.timeout))
            return [Completion(text=self.REPLIES[request.seed])]
        if self.early_reply in request.prompt and VERDICTS_HEADER not in request.prompt:
            with self.lock:
                self.early_verdicts += 1
                if self.early_verdicts == self.m:
                    self.verdicts_asked.set()
        return super().complete(request)


def test_rex_got_retried_path_does_not_wait_for_a_later_samples_retry():
    # One retry is held until the other retried path has asked its verdicts,
    # so a run that asks step 2 only after every retry, or only after the
    # earlier sample's retry, would time out. Either path's retry may be late.
    instance = make_instance(m=4)
    for late_seed in (3, 1):
        backend = LateRetryBackend(timeout=5, m=instance.m, late_seed=late_seed)
        prediction = run_strategy(instance, Strategy.REX_GOT, backend, ReasonerConfig(k=2))
        assert backend.held == [True]
        assert [p.a1.excluded for p in prediction.paths] == [{1}, {2}]
        assert not any(p.a1.parse_failed for p in prediction.paths)


class SeededRetryBackend(StepBackend):
    """Step 1 samples ``a1_texts``; each retry answers ``Excluded: <letter of its seed>``."""

    def __init__(self, a1_texts):
        super().__init__(a1_texts)
        self.seeds = []

    def complete(self, request):
        if is_step1_retry(request):
            self.seeds.append(request.seed)
            return [Completion(text=f"Excluded: {'ABCD'[request.seed % 4]}")]
        return super().complete(request)


def test_rex_got_step1_retries_are_draws_of_their_own_under_a_recording_cache(tmp_path):
    # Two samples need a retry. Each retry carries its path's seed, so a
    # recording cache asks both, and each path takes its own reply.
    instance = make_instance(m=4)
    inner = SeededRetryBackend(["garbled", "garbled", "Excluded: A"])
    backend = CachingBackend(inner, tmp_path / "cache")
    try:
        prediction = run_strategy(instance, Strategy.REX_GOT, backend, ReasonerConfig(k=3))
    finally:
        backend.close()
    assert sorted(inner.seeds) == [1, 3]  # (seed 0 · K + path) · 2 + attempt 1
    assert [p.a1.excluded for p in prediction.paths] == [{1}, {3}, {0}]


class FailingRetryBackend(StepBackend):
    def complete(self, request):
        if is_step1_retry(request):
            raise TransportError("injected failure")
        return super().complete(request)


def test_rex_got_step1_retry_failure_surfaces_and_leaves_no_call_running(bob_movie_instance):
    config = ReasonerConfig(k=3)
    backend = SleepyBackend(
        FailingRetryBackend(["garbled", "Excluded: A", "Excluded: B"]), lambda p: 0.05
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(TransportError):
            run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, config, pool)
        assert backend.in_flight == 0
        calls_at_return = backend.calls
        time.sleep(0.1)
        assert backend.calls == calls_at_return  # queued calls were cancelled
    assert calls_at_return < 1 + config.k * bob_movie_instance.m


def test_rex_got_step2_failure_surfaces_and_leaves_no_call_running(bob_movie_instance):
    config = ReasonerConfig(k=3)
    failing = render_prompt(
        bob_movie_instance, PromptKind.STEP2_VERDICT, a1=BOB_EXCLUSION_TEXT, option_index=0
    )
    backend = SleepyBackend(
        scripted_rex_backend(bob_movie_instance), lambda p: 0.05, fail_prompt=failing
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(TransportError):
            run_strategy(bob_movie_instance, Strategy.REX_GOT, backend, config, pool)
        assert backend.in_flight == 0
        calls_at_return = backend.calls
        time.sleep(0.1)
        assert backend.calls == calls_at_return  # queued calls were cancelled
    assert calls_at_return < 1 + config.k * bob_movie_instance.m


def test_rex_got_shared_call_failure_surfaces_once_and_leaves_no_call_running(
    bob_movie_instance,
):
    config = ReasonerConfig(k=3)
    m = bob_movie_instance.m
    failing = render_prompt(
        bob_movie_instance, PromptKind.STEP2_VERDICT, a1=BOB_EXCLUSION_TEXT, option_index=m - 1
    )
    backend = SleepyBackend(
        scripted_rex_backend(bob_movie_instance), lambda p: 0.05, fail_prompt=failing
    )
    wrapper = CountingWrapper(backend)
    with ThreadPoolExecutor(max_workers=config.k * m) as pool:
        with pytest.raises(TransportError):
            run_strategy(bob_movie_instance, Strategy.REX_GOT, wrapper, config, pool)
        assert backend.in_flight == 0
    # All K paths ask the failing question; it reached the backend once.
    assert [r.prompt for r in wrapper.requests].count(failing) == 1
    assert backend.calls == 1 + m


def test_rex_got_call_count_is_fixed_by_step1_texts_under_load():
    # The instances render equal prompts, yet each shares calls only within
    # itself, so the count is the same whatever the timing of the threads.
    n, k, m = 8, 3, 4
    config = ReasonerConfig(k=k)
    backend = SleepyBackend(
        StepBackend(["Excluded: A", "Excluded: B", "Excluded: A"]),
        lambda p: prompt_rank(p) * 0.001,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=n * k * m) as calls, \
                ThreadPoolExecutor(max_workers=n) as instances:
            futures = [
                instances.submit(
                    run_strategy, make_instance(f"i{j}", m=m), Strategy.REX_GOT, backend,
                    config, calls,
                )
                for j in range(n)
            ]
            predictions = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # Per instance: step 1, then m verdicts and one combine for each of the two texts.
    assert backend.calls == n * (1 + 2 * (m + 1))
    assert backend.in_flight == 0
    assert all(p.chosen == frozenset({0}) and not p.fallback_used for p in predictions)


# --- retry contract ---------------------------------------------------------


class QueuedBackend:
    """Returns queued replies in order, one per requested sample, whatever the prompt."""

    def __init__(self, replies):
        self.replies = list(replies)
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            texts, self.replies = self.replies[: request.n_samples], self.replies[request.n_samples:]
        assert len(texts) == request.n_samples, "reply queue ran dry"
        return [Completion(text=text) for text in texts]


RETRY_CONFIG = ReasonerConfig(k=3, temperature_step1=0.9, temperature_step2=0.2,
                              temperature_step3=0.4)


class QueuedStep1Backend(StepBackend):
    """Step 1 returns queued replies in order; steps 2 and 3 as :class:`StepBackend`."""

    def __init__(self, replies):
        super().__init__([])
        self.step1 = QueuedBackend(replies)

    def complete(self, request):
        if EXCLUSION_HEADER not in request.prompt:
            return self.step1.complete(request)
        return super().complete(request)


def test_step1_garbage_sample_gets_one_single_retry_in_sample_order(bob_movie_instance):
    backend = CountingWrapper(QueuedStep1Backend(
        ["Excluded: A", "mmm interesting question", "Excluded: C", "Excluded: B"]
    ))
    results = step1_results(bob_movie_instance, backend, RETRY_CONFIG)
    assert [r.excluded for r in results] == [{0}, {1}, {2}]
    assert not any(r.parse_failed for r in results)
    assert results[1].raw_text == "Excluded: B"
    step1 = step_requests(backend.requests, 1)
    assert [(r.n_samples, r.temperature) for r in step1] == [(3, 0.9), (1, 0.9)]
    assert step1[0].prompt == step1[1].prompt


def test_step3_garbage_then_answer_takes_the_retry():
    instance = make_instance(m=3)
    verdicts = [f"v{i}\nVerdict: reasonable" for i in range(3)]
    backend = CountingWrapper(
        QueuedBackend(["Excluded: none", *verdicts, "garbled nonsense output", "Answer: B"])
    )
    path = one_path(instance, backend, RETRY_CONFIG)
    assert not path.a1.parse_failed
    assert all(v.verdict is Verdict.REASONABLE for v in path.a2.values())
    assert (path.a3, path.degenerate) == (frozenset({1}), False)
    step3 = step_requests(backend.requests, 3)
    assert [(r.n_samples, r.temperature) for r in step3] == [(1, 0.4), (1, 0.4)]


def test_standard_garbage_then_valid_is_no_fallback():
    instance = make_instance(m=3)
    backend = CountingWrapper(QueuedBackend(["garbled nonsense output", "Answer: A, C"]))
    prediction = run_strategy(instance, Strategy.STANDARD, backend, RETRY_CONFIG)
    assert prediction.chosen == frozenset({0, 2})
    assert not prediction.fallback_used
    assert [(r.n_samples, r.temperature) for r in backend.requests] == [(1, 0.4), (1, 0.4)]


def test_pick_loop_unparseable_twice_falls_back():
    instance = make_instance(m=3)
    backend = CountingWrapper(QueuedBackend(["garbled nonsense output", "still garbled"]))
    prediction = run_strategy(instance, Strategy.FORWARD, backend, RETRY_CONFIG)
    assert prediction.fallback_used
    assert prediction.chosen == frozenset({0})
    assert [(r.n_samples, r.temperature) for r in backend.requests] == [(1, 0.4), (1, 0.4)]


def test_verdict_abstention_keeps_the_retry_text():
    instance = make_instance(m=2)
    backend = CountingWrapper(QueuedBackend(
        ["Excluded: none", "shrug", "second shrug", "Verdict: reasonable", "Answer: B"]
    ))
    path = one_path(instance, backend, RETRY_CONFIG)
    assert path.a1 == ExclusionResult(excluded=frozenset(), raw_text="Excluded: none")
    assert path.a2[0].verdict is Verdict.ABSTAIN
    assert path.a2[0].raw_text == "second shrug"
    assert path.a2[1].verdict is Verdict.REASONABLE
    step2 = step_requests(backend.requests, 2)
    assert [(r.n_samples, r.temperature) for r in step2] == [(1, 0.2)] * 3


@pytest.mark.parametrize("strategy", list(Strategy))
def test_greedy_unparseable_reply_is_asked_once(strategy):
    # At temperature 0 a resend is the same request, so it would get the same
    # reply: every greedy call is asked once, for the baselines and for
    # rex_got's steps 2 and 3 alike.
    instance = make_instance(m=2)
    backend = ScriptedBackend(default_responses=["shrug"])
    backend.register_script(
        responses=["Excluded: none"], prompt=render_prompt(instance, PromptKind.STEP1_EXCLUSION)
    )
    wrapper = CountingWrapper(backend)
    prediction = run_strategy(instance, strategy, wrapper, ReasonerConfig(k=1))
    prompts = [r.prompt for r in wrapper.requests]
    assert len(prompts) == len(set(prompts))
    assert len(prompts) == (1 + instance.m + 1 if strategy is Strategy.REX_GOT else 1)
    assert prediction.fallback_used


class HashedReplyBackend:
    """Answers each prompt with one of two fixed replies chosen by its digest; counts calls."""

    REPLIES = ("garbled nonsense output", "Answer: B\nPick: B\nRemove: A\nMore: yes")

    def __init__(self):
        self.calls = 0
        self.garbled = 0
        self._lock = threading.Lock()

    def complete(self, request):
        text = self.REPLIES[prompt_rank(request.prompt) % 2]
        with self._lock:
            self.calls += 1
            self.garbled += text == self.REPLIES[0]
        return [Completion(text=text)] * request.n_samples


@pytest.mark.parametrize(
    "strategy", [Strategy.STANDARD, Strategy.COT, Strategy.FORWARD, Strategy.BACKWARD]
)
def test_greedy_baseline_record_asks_as_many_calls_as_no_cache_and_replays_equal(
    strategy, tmp_path
):
    instances = [make_instance(instance_id=f"q{i}", m=3, question=f"Why {i}?") for i in range(8)]

    def run_all(backend):
        return [run_strategy(instance, strategy, backend) for instance in instances]

    off = HashedReplyBackend()
    expected = run_all(off)
    assert off.garbled > 0
    inner = HashedReplyBackend()
    recording = CachingBackend(inner, tmp_path / "cache")
    try:
        assert run_all(recording) == expected
    finally:
        recording.close()
    assert inner.calls == off.calls
    replaying = CachingBackend(None, tmp_path / "cache")
    try:
        assert run_all(replaying) == expected
    finally:
        replaying.close()


class GarbledThenAnswerBackend:
    """Answers ``garbled`` to the first request and ``Answer: A`` to every later one."""

    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return [Completion(text="garbled" if self.calls == 1 else "Answer: A")] * request.n_samples


def test_sampled_retry_is_a_new_draw_under_a_recording_cache(tmp_path):
    # The retry carries a seed of its own, so a recording cache does not answer
    # it with the failed attempt's entry: record chooses what a run without a cache does.
    instance = make_instance(m=3)
    config = ReasonerConfig(temperature_step3=0.7)
    off, inner = GarbledThenAnswerBackend(), GarbledThenAnswerBackend()
    recording = CachingBackend(inner, tmp_path / "cache")
    try:
        predictions = [
            run_strategy(instance, Strategy.STANDARD, backend, config)
            for backend in (off, recording)
        ]
    finally:
        recording.close()
    assert [(p.chosen, p.fallback_used) for p in predictions] == [(frozenset({0}), False)] * 2
    assert off.calls == inner.calls == 2


class SamplingBackend:
    """A stand-in for a sampling server that honours seeds.

    A greedy reply is drawn from the prompt alone. A sampled one is drawn from
    the prompt, seed, sample count and index, and how often that request was
    asked before, so a resend of an equal request gets a new draw. Every
    reply parses for all steps and strategies alike, or for none of them.
    """

    REPLIES = (
        "garbled",
        "Excluded: A\nVerdict: reasonable\nAnswer: A\nPick: A\nRemove: B\nMore: yes",
        "Excluded: B\nVerdict: unreasonable\nAnswer: B\nPick: B\nRemove: A\nMore: no",
        "Excluded: none\nVerdict: reasonable\nAnswer: A, B\nPick: B\nRemove: B\nMore: no",
    )

    def __init__(self):
        self.seen = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        if request.temperature == 0:
            return [Completion(text=self._draw(request.prompt))] * request.n_samples
        with self._lock:
            seen = self.seen[request]
            self.seen[request] += 1
        return [
            Completion(text=self._draw(request.prompt, request.seed, request.n_samples, i, seen))
            for i in range(request.n_samples)
        ]

    def _draw(self, *source):
        return self.REPLIES[prompt_rank(repr(source)) % len(self.REPLIES)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    strategy=st.sampled_from(list(Strategy)),
    k=st.integers(1, 4),
    m=st.integers(2, 4),
    temperatures=st.tuples(
        st.sampled_from([0.0, 0.8]), st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.4])
    ),
)
def test_off_record_and_replay_choose_alike_against_a_sampling_server(
    strategy, k, m, temperatures
):
    # No two sampled requests of a run are equal, so a cache never stands in
    # one draw for another: record and its replay repeat the run without a cache.
    instances = [make_instance(f"q{i}", m=m, question=f"Why {i}?") for i in range(4)]
    t1, t2, t3 = temperatures
    config = ReasonerConfig(k=k, temperature_step1=t1, temperature_step2=t2, temperature_step3=t3)

    def run_all(backend):
        return [run_strategy(instance, strategy, backend, config) for instance in instances]

    expected = run_all(SamplingBackend())
    with tempfile.TemporaryDirectory() as cache_dir:
        recording = CachingBackend(SamplingBackend(), cache_dir)
        try:
            assert run_all(recording) == expected
        finally:
            recording.close()
        replaying = CachingBackend(None, cache_dir)
        try:
            assert run_all(replaying) == expected
        finally:
            replaying.close()
