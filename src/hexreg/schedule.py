"""Threshold schedules: stepwise, cosine-curve, fixed, and batch-adaptive.

Manual schedules map an epoch index (0-based) to a similarity threshold;
the adaptive strategy instead derives the threshold from the pooled
off-diagonal similarities of the current batch as mean + k * std.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import check_fields, refusal

KINDS = ("step", "cos", "adaptive", "fixed")


@dataclass
class ThresholdSchedule:
    kind: str
    start: float = 0.9
    floor: float = 0.1
    step_down: float = 0.1
    period_epochs: int = 100
    total_epochs: int = 100
    sigma_multiplier: float = 2.0

    def __post_init__(self):
        check_fields("schedule", self, kind=KINDS, start="real", floor="real",
                     step_down="real", period_epochs="int >= 1", total_epochs="int",
                     sigma_multiplier="real > 0")
        for_kind = f"for the {self.kind} schedule"
        if self.kind in ("step", "cos") and self.start < self.floor:
            raise refusal("schedule.start", f"be >= schedule.floor ({self.floor!r}) {for_kind}",
                          self.start)
        if self.kind == "step" and self.step_down <= 0:
            raise refusal("schedule.step_down", f"be > 0 {for_kind}", self.step_down)
        if self.kind == "cos" and self.total_epochs < 1:
            raise refusal("schedule.total_epochs", f"be >= 1 {for_kind}", self.total_epochs)


def step_threshold(s: ThresholdSchedule, epoch: int) -> float:
    return max(s.floor, s.start - s.step_down * (epoch // s.period_epochs))


def cosine_threshold(s: ThresholdSchedule, epoch: int) -> float:
    frac = min(epoch, s.total_epochs) / s.total_epochs
    return s.floor + (s.start - s.floor) * (1.0 + math.cos(math.pi * frac)) / 2.0


def adaptive_threshold(batch_sims, sigma_multiplier: float = 2.0) -> float:
    """Mean plus sigma_multiplier population standard deviations of the
    pooled off-diagonal similarities. May legally exceed 1; combined with
    strict-inequality masks that simply yields empty memberships."""
    values = np.asarray(batch_sims, dtype=np.float64).ravel()
    # sum / size and d *= d give np.mean's and ** 2's bits without their
    # temporaries and dispatch.
    mean = float(values.sum() / values.size)
    d = values - mean
    d *= d
    std = float(np.sqrt(d.sum() / d.size))
    return mean + sigma_multiplier * std


def threshold_for_epoch(s: ThresholdSchedule, epoch: int) -> Optional[float]:
    """Scheduled threshold for manual kinds; None for adaptive (the value
    is batch-dependent and must come from adaptive_threshold)."""
    if s.kind == "step":
        return step_threshold(s, epoch)
    if s.kind == "cos":
        return cosine_threshold(s, epoch)
    if s.kind == "fixed":
        return s.start
    return None
