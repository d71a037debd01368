"""Macro-F1 / exact-match scoring, breakdowns, and comparison tables.

Macro-F1 is defined over binary (instance, option) samples: each option
of each instance is one sample whose label is "correct option" iff it is
in the gold set and whose prediction is membership in the predicted set.
The score is the unweighted mean of the positive-class and negative-class
F1. A class with no true and no predicted samples scores F1 = 1; no true
but some predicted scores 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .dataset import Corpus
from .model import Prediction, RexGotError, check_json_types


class EmptyInput(RexGotError):
    """Metric requested over zero pairs."""


class CoverageError(RexGotError):
    """Predictions and corpus do not line up one-to-one."""


class MissingPrediction(CoverageError):
    def __init__(self, ids: Sequence[str]):
        super().__init__(f"no prediction for instance(s): {', '.join(sorted(ids))}")
        self.ids = tuple(sorted(ids))


class UnknownInstance(CoverageError):
    def __init__(self, ids: Sequence[str]):
        super().__init__(
            f"prediction(s) for unknown or duplicated instance(s): {', '.join(sorted(ids))}"
        )
        self.ids = tuple(sorted(ids))


class DuplicateReport(RexGotError):
    """Two reports score one strategy on one corpus, and a table has one cell for both."""

    def __init__(self, first: int, second: int, strategy: str, corpus: str):
        self.first, self.second = first, second  # indices into the reports compared
        self.clash = f"both score {strategy} on corpus {corpus}"
        super().__init__(f"reports #{first + 1} and #{second + 1} {self.clash}")


def exact_match(pred: Iterable[int], gold: Iterable[int]) -> int:
    """1 iff the predicted option set equals the gold set exactly."""
    return 1 if frozenset(pred) == frozenset(gold) else 0


def _confusion(pairs: Iterable[tuple[Iterable[int], Iterable[int], int]]) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for pred, gold, m in pairs:
        pred_set, gold_set = frozenset(pred), frozenset(gold)
        for option in range(m):
            in_pred, in_gold = option in pred_set, option in gold_set
            if in_pred and in_gold:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_gold:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def _f1(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 1.0
    return 2 * tp / denominator


def macro_f1(pairs: Sequence[tuple[Iterable[int], Iterable[int], int]]) -> float:
    """Unweighted mean of positive- and negative-class F1 over all samples.

    ``pairs`` holds (predicted set, gold set, option count) triples.
    """
    if not pairs:
        raise EmptyInput("macro_f1 needs at least one (pred, gold, m) pair")
    tp, fp, fn, tn = _confusion(pairs)
    positive = _f1(tp, fp, fn)
    # For the negative class the roles swap: true negatives are hits,
    # missed negatives are gold-positive predictions.
    negative = _f1(tn, fn, fp)
    return (positive + negative) / 2.0


def _check_scores(scores: Mapping[str, float]) -> None:
    for label, value in scores.items():
        if not 0.0 <= value <= 1.0:  # also refuses NaN
            raise ValueError(f"{label} out of range: {value}")


@dataclass(frozen=True)
class BucketScore:
    n: int
    macro_f1: float
    em: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"bucket size must be >= 1, got {self.n}")
        _check_scores({"macro_f1": self.macro_f1, "em": self.em})


@dataclass(frozen=True)
class EvalReport:
    """Per-strategy scores with a breakdown by number of correct options."""

    strategy: str
    corpus_name: str
    n_instances: int
    macro_f1: float
    exact_match: float
    by_gold_count: Mapping[int, BucketScore] = field(default_factory=dict)
    config_fingerprint: str = ""

    def __post_init__(self):
        object.__setattr__(self, "by_gold_count", dict(self.by_gold_count))
        if self.n_instances < 1:
            raise ValueError(f"n_instances must be >= 1, got {self.n_instances}")
        total = sum(bucket.n for bucket in self.by_gold_count.values())
        if total != self.n_instances:
            raise ValueError(
                f"bucket sizes sum to {total}, expected {self.n_instances}"
            )
        if any(size < 1 for size in self.by_gold_count):
            raise ValueError(f"gold counts must be >= 1, got {sorted(self.by_gold_count)}")
        _check_scores({"macro_f1": self.macro_f1, "exact_match": self.exact_match})

    def to_json_dict(self) -> dict[str, Any]:
        by_gold_count = {str(k): asdict(b) for k, b in sorted(self.by_gold_count.items())}
        return asdict(self) | {"by_gold_count": by_gold_count}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "EvalReport":
        """The report :meth:`to_json_dict` wrote; a value of the wrong type is a TypeError."""
        values = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        buckets = values.pop("by_gold_count", {})
        if not isinstance(buckets, dict) or not all(isinstance(b, dict) for b in buckets.values()):
            raise TypeError(f"by_gold_count must map gold counts to objects, got {buckets!r}")
        check_json_types(cls, values)
        for bucket in buckets.values():
            check_json_types(BucketScore, bucket)
        by_gold_count = {int(k): BucketScore(**b) for k, b in buckets.items()}
        return cls(**values, by_gold_count=by_gold_count)


def evaluate(
    predictions: Sequence[Prediction],
    corpus: Corpus,
    config_fingerprint: str = "",
) -> EvalReport:
    """Score predictions of one strategy against a corpus they must cover exactly once each."""
    by_id = corpus.by_id()
    seen: set[str] = set()
    unknown: list[str] = []
    for prediction in predictions:
        if prediction.instance_id not in by_id or prediction.instance_id in seen:
            unknown.append(prediction.instance_id)
        seen.add(prediction.instance_id)
    missing = [iid for iid in by_id if iid not in seen]
    if unknown:
        raise UnknownInstance(unknown)
    if missing:
        raise MissingPrediction(missing)

    if not predictions:
        raise EmptyInput("cannot evaluate zero predictions")
    strategies = sorted({prediction.strategy.value for prediction in predictions})
    if len(strategies) > 1:
        raise ValueError(f"predictions of more than one strategy: {', '.join(strategies)}")
    pairs = []
    by_size: dict[int, list] = {}
    for prediction in sorted(predictions, key=lambda p: p.instance_id):
        instance = by_id[prediction.instance_id]
        pair = (prediction.chosen, instance.gold, instance.m)
        pairs.append(pair)
        by_size.setdefault(len(instance.gold), []).append(pair)

    return EvalReport(
        strategy=strategies[0],
        corpus_name=corpus.name,
        n_instances=len(pairs),
        macro_f1=macro_f1(pairs),
        exact_match=_exact_match_rate(pairs),
        by_gold_count={
            size: BucketScore(n=len(group), macro_f1=macro_f1(group), em=_exact_match_rate(group))
            for size, group in by_size.items()
        },
        config_fingerprint=config_fingerprint,
    )


def _exact_match_rate(pairs: Sequence[tuple[Iterable[int], Iterable[int], int]]) -> float:
    return sum(exact_match(pred, gold) for pred, gold, _ in pairs) / len(pairs)


@dataclass(frozen=True)
class ComparisonTable:
    """Strategy x corpus comparison with JSON and aligned-text renderings."""

    corpora: tuple[str, ...]
    rows: tuple[tuple[str, tuple[tuple[float, float] | None, ...]], ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "corpora": list(self.corpora),
            "rows": [
                {
                    "strategy": strategy,
                    "scores": {
                        corpus: None
                        if cell is None
                        else {"macro_f1": round(cell[0], 2), "em": round(cell[1], 2)}
                        for corpus, cell in zip(self.corpora, cells)
                    },
                }
                for strategy, cells in self.rows
            ],
        }

    def to_text(self) -> str:
        headers = ["strategy"]
        for corpus in self.corpora:
            headers.extend([f"{corpus}/F1", f"{corpus}/EM"])
        body = []
        for strategy, cells in self.rows:
            row = [strategy]
            for cell in cells:
                if cell is None:
                    row.extend(["-", "-"])
                else:
                    row.extend([f"{cell[0]:.2f}", f"{cell[1]:.2f}"])
            body.append(row)
        widths = [
            max(len(headers[c]), *(len(row[c]) for row in body)) if body else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"


def compare_report(reports: Sequence[EvalReport]) -> ComparisonTable:
    """Build the strategy-by-corpus table; rows sorted by strategy name.

    Output is independent of input order. Two reports of one strategy on
    one corpus are a :class:`DuplicateReport`, since neither may hide the other.
    """
    if not reports:
        raise EmptyInput("compare_report needs at least one report")
    corpora = tuple(sorted({r.corpus_name for r in reports}))
    by_cell: dict[tuple[str, str], int] = {}  # the index of each cell's report
    for i, report in enumerate(reports):
        cell = (report.strategy, report.corpus_name)
        first = by_cell.setdefault(cell, i)
        if first != i:
            raise DuplicateReport(first, i, *cell)
    strategies = sorted({r.strategy for r in reports})
    rows = []
    for strategy in strategies:
        cells = []
        for corpus in corpora:
            i = by_cell.get((strategy, corpus))
            cells.append(None if i is None else (reports[i].macro_f1, reports[i].exact_match))
        rows.append((strategy, tuple(cells)))
    return ComparisonTable(corpora=corpora, rows=tuple(rows))


def write_report_files(report: EvalReport, out_dir: str | Path) -> None:
    """Write report.json, report.txt, and by_gold_count.csv into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n", "utf-8"
    )
    table = compare_report([report]).to_text()
    bucket_lines = ["", "by gold count:", "gold_count  n  macro_f1  em"]
    for size, bucket in sorted(report.by_gold_count.items()):
        bucket_lines.append(f"{size}  {bucket.n}  {bucket.macro_f1:.2f}  {bucket.em:.2f}")
    (out_dir / "report.txt").write_text(table + "\n".join(bucket_lines) + "\n", "utf-8")
    with (out_dir / "by_gold_count.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gold_count", "n", "macro_f1", "em"])
        for size, bucket in sorted(report.by_gold_count.items()):
            writer.writerow([size, bucket.n, repr(bucket.macro_f1), repr(bucket.em)])
