"""Classification metrics, top-k accounting, cross-run variance, and run summaries."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .labels import AddressSet


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def precision_recall_f1(
    predicted: Iterable[str], labels: AddressSet, universe: Iterable[str]
) -> Metrics:
    """Critical-class metrics for a predicted IP set.

    Membership is CIDR-aware. ``universe`` is every IP that was evaluated;
    false negatives are the labeled criticals present in it but not
    predicted. Precision or recall with a zero denominator counts as 0.
    """
    predicted = set(predicted)
    tp = sum(1 for ip in predicted if ip in labels)
    fp = len(predicted) - tp
    fn = sum(1 for ip in universe if ip in labels and ip not in predicted)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return Metrics(tp, fp, fn, precision, recall, f1_from_counts(tp, fp, fn))


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """Critical-class F1 as 2tp / (2tp + fp + fn), 0 when that denominator is 0.

    Equal to the harmonic mean of precision and recall, but rounded once, so
    equal-F1 ties compare exactly.
    """
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def mask_f1(predicted: np.ndarray, actual: np.ndarray) -> float:
    """F1 of a boolean prediction against a boolean label mask of the same shape."""
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    return f1_from_counts(tp, fp, fn)


def topk_true_positives(
    ranking: Sequence[str],
    labels: AddressSet,
    k: int,
    local_prefixes: AddressSet | None = None,
) -> tuple[int, int]:
    """Counts over the first min(k, len(ranking)) entries of a descending ranking.

    Returns (labeled-critical count, local-prefix member count); the second
    is 0 when no local prefixes are configured.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    top = list(ranking[:k])
    tp = sum(1 for ip in top if ip in labels)
    members = 0
    if local_prefixes is not None:
        members = sum(1 for ip in top if ip in local_prefixes)
    return tp, members


def variance_of_tp(samples_by_run: Sequence[Sequence[float]]) -> float:
    """Population variance of each sample column, averaged across columns.

    ``samples_by_run`` is a runs x samples matrix; at least two runs are
    required, and every run must have the same number of samples.
    """
    arr = np.asarray(samples_by_run, dtype=float)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("expected a non-empty runs x samples matrix")
    if arr.shape[0] < 2:
        raise ValueError("variance needs at least two runs")
    return float(np.var(arr, axis=0).mean())


def write_run_summary(path, summary: dict) -> None:
    """JSON summary of one run, stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
