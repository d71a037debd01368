"""Reverse-exclusion graph-of-thought reasoning and evaluation harness
for dialogue multi-choice question answering over pluggable LLM backends."""

from .backend import (
    Backend,
    BackendError,
    CachingBackend,
    Completion,
    CompletionRequest,
    HTTPBackend,
    ScriptedBackend,
    cache_key,
)
from .dataset import Corpus, corpus_stats, filter_multi, load_corpus, save_corpus
from .evaluation import EvalReport, compare_report, evaluate, exact_match, macro_f1
from .model import (
    MCQInstance,
    Prediction,
    RexGotError,
    Strategy,
    Utterance,
    validate_instance,
)
from .parsing import (
    ExclusionResult,
    OptionVerdict,
    Verdict,
    parse_exclusions,
    parse_final_set,
    parse_verdict,
)
from .prompts import PromptKind, render_prompt
from .reasoner import (
    ReasonerConfig,
    ReasoningPath,
    TieBreak,
    VoteKind,
    VotePolicy,
    build_graph,
    run_strategy,
    vote,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendError",
    "CachingBackend",
    "Completion",
    "CompletionRequest",
    "Corpus",
    "EvalReport",
    "ExclusionResult",
    "HTTPBackend",
    "MCQInstance",
    "OptionVerdict",
    "Prediction",
    "PromptKind",
    "ReasonerConfig",
    "ReasoningPath",
    "RexGotError",
    "ScriptedBackend",
    "Strategy",
    "TieBreak",
    "Utterance",
    "Verdict",
    "VoteKind",
    "VotePolicy",
    "build_graph",
    "cache_key",
    "compare_report",
    "corpus_stats",
    "evaluate",
    "exact_match",
    "filter_multi",
    "load_corpus",
    "macro_f1",
    "parse_exclusions",
    "parse_final_set",
    "parse_verdict",
    "render_prompt",
    "run_strategy",
    "save_corpus",
    "validate_instance",
    "vote",
]
