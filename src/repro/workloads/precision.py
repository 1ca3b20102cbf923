"""Accuracy metrics for (approximate) reachability answers.

The paper reports *precision* in the loose sense of overall accuracy
("iteratively lower epsilon until the precision is at least 90%"), the
measure the approximate methods (Base, ARROW) are tuned and reported by.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def confusion_counts(
    answers: Sequence[bool], truth: Sequence[bool]
) -> Tuple[int, int, int, int]:
    """(true_pos, false_pos, true_neg, false_neg)."""
    if len(answers) != len(truth):
        raise ValueError("answers and truth must have equal length")
    tp = fp = tn = fn = 0
    for a, g in zip(answers, truth):
        if a and g:
            tp += 1
        elif a and not g:
            fp += 1
        elif not a and not g:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def accuracy(answers: Sequence[bool], truth: Sequence[bool]) -> float:
    """Fraction of correct answers (the paper's "precision"); 1.0 on empty."""
    if not truth:
        return 1.0
    tp, fp, tn, fn = confusion_counts(answers, truth)
    return (tp + tn) / len(truth)
