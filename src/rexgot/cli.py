"""Command-line surface: run strategies, compare reports, corpus stats, cache purge.

Flags mirror the run configuration one-to-one; a JSON config file may
supply defaults, with flags overriding. The API credential is read from
the ``REXGOT_API_KEY`` environment variable, never from the command line.
No command writes outside the configured output and cache directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Sequence

from .backend import (
    Backend,
    BackendError,
    CachingBackend,
    HTTPBackend,
    ScriptedBackend,
    _close,
    purge_cache,
)
from .dataset import FORMATS, corpus_stats, load_corpus
from .evaluation import DuplicateReport, EvalReport, compare_report, evaluate, write_report_files
from .model import JSON_TYPES, MCQInstance, Prediction, RexGotError, Strategy, check_json_types
from .prompts import template_version
from .reasoner import (
    ReasonerConfig,
    TieBreak,
    VoteKind,
    VotePolicy,
    build_graph,
    build_trace,
    prediction_record,
    run_strategy,
)

BACKEND_KINDS = ("http", "scripted")
CACHE_OFF = "off"
CACHE_RECORD = "record"
CACHE_REPLAY = "replay"
CACHE_MODES = (CACHE_OFF, CACHE_RECORD, CACHE_REPLAY)
# The allowed values of each RunConfig setting that has a fixed set of them.
_CHOICES = {
    "format": FORMATS,
    "strategy": tuple(s.value for s in Strategy),
    "backend": BACKEND_KINDS,
    "vote_policy": tuple(k.value for k in VoteKind),
    "tie_break": tuple(t.value for t in TieBreak),
    "cache_mode": CACHE_MODES,
}
# Settings the fingerprint leaves out, as they do not shape results: where the
# inputs and outputs are, how many instances run at once, and the cache mode,
# since a cached answer is the one the server gave. The endpoint is left out
# too, although the server it names does shape results.
_UNFINGERPRINTED = {"corpus", "endpoint", "scripts", "workers", "cache_mode", "cache_dir", "out"}


class ConfigError(RexGotError):
    """Invalid run configuration; reported before any backend call."""


def _setting(help: str, default: Any = MISSING) -> Any:
    """A RunConfig field; a value outside its choices is a config error that names ``help``."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Every ``rexgot run`` setting; each is a ``--flag`` and a config-file key of its name."""

    corpus: str = _setting("corpus file path")
    strategy: str = _setting("strategy")
    format: str = _setting("corpus format", "canonical")
    backend: str = _setting("backend kind", "http")
    endpoint: str = _setting("base URL of the chat-completions endpoint", "")
    model: str = _setting("model name sent to the backend", "")
    scripts: str = _setting("JSON script file for the scripted backend", "")
    k: int = _setting("number of sampled reasoning paths", 3)
    temp_step1: float = _setting("temperature of the sampled exclusion step", 0.7)
    temp_step2: float = _setting("temperature of the per-option analysis step", 0.0)
    temp_step3: float = _setting("temperature of the combining step", 0.0)
    vote_policy: str = _setting("vote policy", "per_option_majority")
    tie_break: str = _setting("tie-break", "prefer_exclude")
    workers: int = _setting("instances processed at once", 1)
    cache_mode: str = _setting("cache mode", CACHE_OFF)
    cache_dir: str = _setting("cache directory", "cache")
    out: str = _setting("output directory", "out")
    seed: int = _setting("seed of the sampled calls", 0)
    max_tokens: int = _setting("completion token limit of each call", 512)
    max_prompt_tokens: int | None = _setting("estimated prompt token budget", None)

    def validate(self) -> ReasonerConfig:
        """Check every setting; returns the reasoner configuration they make."""
        try:
            reasoner_config = ReasonerConfig(
                model_name=self.model,
                k=self.k,
                temperature_step1=self.temp_step1,
                temperature_step2=self.temp_step2,
                temperature_step3=self.temp_step3,
                max_tokens=self.max_tokens,
                vote_policy=VotePolicy(
                    kind=VoteKind(self.vote_policy), tie_break=TieBreak(self.tie_break)
                ),
                max_prompt_tokens=self.max_prompt_tokens,
                seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # The enums above have already refused a bad vote policy or tie-break.
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                label = self.__dataclass_fields__[name].metadata["help"]
                raise ConfigError(f"unknown {label} {value!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.cache_mode != CACHE_REPLAY:
            if self.backend == "http" and not self.endpoint:
                raise ConfigError("http backend requires --endpoint")
            if self.backend == "scripted" and not self.scripts:
                raise ConfigError("scripted backend requires --scripts")
        return reasoner_config

    def fingerprint(self) -> str:
        """Digest of every setting that shapes results, and of the prompt templates."""
        payload = {k: v for k, v in asdict(self).items() if k not in _UNFINGERPRINTED}
        if self.vote_policy == VoteKind.PATH_PLURALITY.value:
            del payload["tie_break"]  # path plurality has its own tie rule
        payload["temperatures"] = [payload.pop(f"temp_step{step}") for step in (1, 2, 3)]
        payload["template_version"] = template_version()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_backend(config: RunConfig) -> Backend:
    """The configured backend, behind the record/replay cache when one is on.

    An endpoint or credential the HTTP client cannot use, and a replay cache
    directory that is missing or holds no segments, are a :class:`ConfigError`.
    """
    if config.cache_mode == CACHE_REPLAY:
        try:
            return CachingBackend(None, config.cache_dir)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if config.backend == "scripted":
        backend: Backend = _load_scripted(config.scripts)
    else:
        try:
            backend = HTTPBackend(base_url=config.endpoint)
        except ValueError as exc:
            raise ConfigError(f"http backend: {exc}") from exc
    if config.cache_mode == CACHE_RECORD:
        backend = CachingBackend(backend, config.cache_dir)
    return backend


def _load_scripted(path: str) -> ScriptedBackend:
    """The backend a ``--scripts`` file describes; a malformed file is a :class:`RexGotError`."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise RexGotError(f"scripts file {path} is not UTF-8 JSON: {exc}") from exc
    scripts = payload.get("scripts", []) if isinstance(payload, dict) else None
    if not isinstance(scripts, list) or not all(isinstance(entry, dict) for entry in scripts):
        raise RexGotError(f"scripts file {path} must hold an object with a list of script objects")
    try:
        backend = ScriptedBackend(default_responses=payload.get("default"))
        for entry in scripts:
            backend.register_script(*map(entry.get, ("responses", "prompt", "digest")))
    except ValueError as exc:
        raise RexGotError(f"scripts file {path}: {exc}") from exc
    return backend


def _predict_one(
    instance: MCQInstance,
    strategy: Strategy,
    config: ReasonerConfig,
    backend: Backend,
    call_pool: Executor,
) -> tuple[Prediction, bool]:
    try:
        return run_strategy(instance, strategy, backend, config, call_pool), False
    except BackendError as exc:
        # Long batch runs survive per-instance faults: report the fault, record
        # a degenerate full-set prediction and count it in the exit summary.
        print(f"rexgot: instance {instance.id}: {exc}", file=sys.stderr)
        prediction = Prediction(
            instance_id=instance.id,
            strategy=strategy,
            chosen=frozenset(range(instance.m)),
            fallback_used=True,
        )
        return prediction, True


def cmd_run(config: RunConfig) -> int:
    reasoner_config = config.validate()
    strategy = Strategy(config.strategy)
    corpus = load_corpus(config.corpus, format=config.format)
    if not corpus.instances:
        raise RexGotError(f"{config.corpus}: corpus holds no instances")
    instances = sorted(corpus.instances, key=lambda instance: instance.id)
    fingerprint = config.fingerprint()

    predictions = []
    failures = 0
    # Instances run on one pool, their fanned-out rex_got calls on another:
    # at most K·m calls per instance, so in-flight calls stay <= workers·K·m.
    # Replayed calls never wait on the network, so a replay's call pool is
    # only as wide as its instance pool. Widening it to workers·K·m raised
    # peak RSS from 28.0 to 29.8 MB and cut instances/s from 237 to 207
    # (medians of 4 paired 8 s runs of perfbench's rex_replay_long, 2 CPUs).
    call_width = config.workers
    if config.cache_mode != CACHE_REPLAY:
        max_m = max(instance.m for instance in instances)
        call_width *= config.k * max_m
    backend = build_backend(config)
    out_dir = Path(config.out)
    instance_pool = ThreadPoolExecutor(max_workers=config.workers)
    call_pool = ThreadPoolExecutor(max_workers=call_width)
    predict = partial(
        _predict_one, strategy=strategy, config=reasoner_config, backend=backend,
        call_pool=call_pool,
    )
    try:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        # Line-buffered: each instance's line is on disk once its result is in.
        with (out_dir / "predictions.jsonl").open("w", encoding="utf-8", buffering=1) as lines:
            for instance, (prediction, failed) in zip(
                instances, instance_pool.map(predict, instances)
            ):
                failures += failed
                paths = prediction.paths
                record = prediction_record(prediction) | {"n_paths": len(paths)}
                lines.write(json.dumps(record, sort_keys=True) + "\n")
                # Only rex_got predictions carry paths; a failed instance has none.
                graph = build_graph(instance, paths) if paths else None
                trace = build_trace(instance, prediction, graph)
                (out_dir / "traces" / f"{instance.id}.json").write_text(
                    json.dumps(trace, sort_keys=True, indent=2) + "\n", "utf-8"
                )
                # Scoring needs only the chosen sets; the raw texts can go.
                predictions.append(replace(prediction, paths=()))
    finally:
        # Instances first: a running instance may still wait on its calls.
        instance_pool.shutdown(cancel_futures=True)
        call_pool.shutdown(cancel_futures=True)
        _close(backend)
    report = evaluate(predictions, corpus, config_fingerprint=fingerprint)
    write_report_files(report, out_dir)

    print(
        f"strategy={report.strategy} corpus={report.corpus_name} "
        f"instances={report.n_instances} macro_f1={report.macro_f1:.4f} "
        f"em={report.exact_match:.4f} failures={failures}"
    )
    if failures:
        print(f"{failures} instance run(s) failed; degenerate predictions recorded",
              file=sys.stderr)
        return 1
    return 0


def cmd_compare(report_paths: Sequence[str], as_json: bool = False) -> int:
    reports = []
    for path in report_paths:
        try:
            payload = json.loads(Path(path).read_text("utf-8"))
            reports.append(EvalReport.from_json_dict(payload))
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            print(f"cannot read report {path}: {exc}", file=sys.stderr)
            return 2
    try:
        table = compare_report(reports)
    except DuplicateReport as exc:
        first, second = report_paths[exc.first], report_paths[exc.second]
        print(f"cannot compare: {first} and {second} {exc.clash}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(table.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(table.to_text(), end="")
    return 0


def cmd_stats(corpus_path: str, format: str, as_json: bool = False) -> int:
    stats = corpus_stats(load_corpus(corpus_path, format=format))
    if as_json:
        print(json.dumps(stats.to_json_dict(), sort_keys=True, indent=2))
        return 0
    print(f"instances: {stats.total}")
    print(f"dialogues: {stats.dialogue_count}")
    print("by gold count:")
    for size, count in sorted(stats.by_gold_count.items()):
        print(f"  {size}: {count}")
    print("by inference type:")
    for name, count in sorted(stats.by_inference_type.items()):
        print(f"  {name}: {count}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexgot",
        description="Dialogue multi-choice QA reasoning strategies and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one strategy over a corpus and write a report")
    run_p.add_argument("--config", help="JSON file supplying flag defaults")
    for setting in fields(RunConfig):
        run_p.add_argument(
            "--" + setting.name.replace("_", "-"),
            type=JSON_TYPES[setting.type][0],
            choices=_CHOICES.get(setting.name),
            help=setting.metadata["help"],
        )

    compare_p = sub.add_parser("compare", help="tabulate strategy reports side by side")
    compare_p.add_argument("reports", nargs="+", help="report.json files")
    compare_p.add_argument("--json", action="store_true", dest="as_json")

    stats_p = sub.add_parser("stats", help="summarise a corpus")
    stats_p.add_argument("--corpus", required=True)
    stats_p.add_argument("--format", choices=FORMATS, default="canonical")
    stats_p.add_argument("--json", action="store_true", dest="as_json")

    cache_p = sub.add_parser("cache", help="cache maintenance")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    purge_p = cache_sub.add_parser("purge", help="delete all cached completions")
    purge_p.add_argument("--cache-dir", required=True, dest="cache_dir")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict[str, Any] = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text("utf-8"))
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
            raise ConfigError(f"config file {args.config} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        settings.update(loaded)
    declared = fields(RunConfig)
    flags = {s.name: getattr(args, s.name) for s in declared}
    settings.update((name, value) for name, value in flags.items() if value is not None)
    missing = [s.name for s in declared if s.default is MISSING and s.name not in settings]
    if missing:
        raise ConfigError(f"missing required setting(s): {', '.join(missing)}")
    unknown = set(settings) - {s.name for s in declared}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    try:
        check_json_types(RunConfig, settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**settings)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "compare":
            return cmd_compare(args.reports, as_json=args.as_json)
        if args.command == "stats":
            return cmd_stats(args.corpus, args.format, as_json=args.as_json)
        if args.command == "cache" and args.cache_command == "purge":
            removed = purge_cache(args.cache_dir)
            print(f"removed {removed} cached completion(s) from {args.cache_dir}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RexGotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
