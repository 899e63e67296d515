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

from .errors import BadConfig, EmptyBatch, _check_finite, _check_int

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
        if self.kind not in KINDS:
            raise BadConfig(f"schedule kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("start", "floor", "step_down", "sigma_multiplier"):
            _check_finite(f"schedule.{name}", getattr(self, name))
        for name in ("period_epochs", "total_epochs"):
            _check_int(f"schedule.{name}", getattr(self, name))
        if self.kind in ("step", "cos") and self.start < self.floor:
            raise BadConfig(f"start ({self.start}) must be >= floor ({self.floor})")
        if self.kind == "step" and self.step_down <= 0:
            raise BadConfig("step_down must be > 0 for the step schedule")
        if self.period_epochs < 1:
            raise BadConfig("period_epochs must be >= 1")
        if self.kind == "cos" and self.total_epochs < 1:
            raise BadConfig("total_epochs must be >= 1 for the cos schedule")
        if self.sigma_multiplier <= 0:
            raise BadConfig("sigma_multiplier must be > 0")


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
    if values.size == 0:
        raise EmptyBatch("adaptive threshold needs at least one similarity")
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
