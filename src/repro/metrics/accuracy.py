"""Accuracy metrics: precision, recall, bloat (paper Section V-C).

Ground truth is ``I_Theta``; the approximation is ``I'_Theta``:

* precision ``|I ∩ I'| / |I'|`` — "what fraction of the carved subset
  actually appears in the ground truth",
* recall ``|I ∩ I'| / |I|`` — "what fraction of the ground truth actually
  appears in the approximated index subset"; recall 1 signifies soundness,
* bloat fraction ``|I_all - I'| / |I_all|`` — the share of the data file
  identified as never accessed (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arraymodel.layout import sorted_unique


@dataclass(frozen=True)
class Accuracy:
    """Precision/recall of an approximated index subset."""

    precision: float
    recall: float
    n_truth: int
    n_approx: int
    n_common: int

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


def accuracy(truth_flat: np.ndarray, approx_flat: np.ndarray) -> Accuracy:
    """Precision and recall of ``approx`` against ``truth`` (flat offsets)."""
    truth = sorted_unique(truth_flat)
    approx = sorted_unique(approx_flat)
    common = np.intersect1d(truth, approx, assume_unique=True)
    precision = common.size / approx.size if approx.size else 1.0
    recall = common.size / truth.size if truth.size else 1.0
    return Accuracy(
        precision=float(precision),
        recall=float(recall),
        n_truth=int(truth.size),
        n_approx=int(approx.size),
        n_common=int(common.size),
    )


def bloat_fraction(kept_flat: np.ndarray, n_total: int) -> float:
    """Fraction of the array identified as bloat: ``|I - I'| / |I|``."""
    if n_total <= 0:
        return 0.0
    kept = sorted_unique(kept_flat).size
    return 1.0 - kept / n_total
