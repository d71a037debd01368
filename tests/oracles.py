"""Independent brute-force oracles the library-path tests are checked against.

Everything here is deliberately written from first principles (per-sample
enumeration, precision/recall formulas) and imports nothing from the
package's metric code.
"""

from __future__ import annotations


def oracle_exact_match(pred, gold) -> int:
    return 1 if set(pred) == set(gold) else 0


def oracle_metrics(items):
    """(macro_f1, em) over (pred set, gold set, m) triples.

    Enumerates every (instance, option) pair as one binary sample and
    computes each class's F1 via precision and recall.
    """
    tp = fp = fn = tn = 0
    for pred, gold, m in items:
        pred, gold = set(pred), set(gold)
        for option in range(m):
            if option in pred and option in gold:
                tp += 1
            elif option in pred and option not in gold:
                fp += 1
            elif option not in pred and option in gold:
                fn += 1
            else:
                tn += 1

    def f1(true_positive, false_positive, false_negative):
        if true_positive + false_positive == 0 and true_positive + false_negative == 0:
            return 1.0
        precision = (
            true_positive / (true_positive + false_positive)
            if true_positive + false_positive
            else 0.0
        )
        recall = (
            true_positive / (true_positive + false_negative)
            if true_positive + false_negative
            else 0.0
        )
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    positive_f1 = f1(tp, fp, fn)
    negative_f1 = f1(tn, fn, fp)
    macro = (positive_f1 + negative_f1) / 2
    em = sum(oracle_exact_match(p, g) for p, g, _ in items) / len(items)
    return macro, em


def oracle_distinct_dialogues(instances) -> int:
    contents = set()
    for inst in instances:
        contents.add(tuple((u.speaker, u.text) for u in inst.dialogue))
    return len(contents)


def format_answer_line(indices) -> str:
    """The "Answer:" directive line naming an option set, "Answer: none" when empty."""
    letters = ", ".join("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[i] for i in sorted(set(indices)))
    return "Answer: " + (letters or "none")
