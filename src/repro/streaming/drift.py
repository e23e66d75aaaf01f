"""Drift detection on the stream of outlyingness scores.

A streaming detector's scores are *relative* quantities — each arrival
is ranked against the current reference — so a persistent shift of the
underlying process shows up as a distributional change of the recent
score sample long before any individual score looks anomalous.
:class:`DepthRankDrift` monitors exactly that: it keeps a *baseline*
sample of scores (depth ranks) captured at the last re-reference and a
rolling *recent* window, and compares them with the two-sample
Kolmogorov–Smirnov statistic

    D = sup_x | F_baseline(x) - F_recent(x) |

rejecting at level ``alpha`` when ``D`` exceeds the classical critical
value ``c(alpha) * sqrt((n1 + n2) / (n1 * n2))`` with
``c(alpha) = sqrt(-ln(alpha / 2) / 2)``.  To suppress one-off bursts
(a batch of genuine outliers also shifts the recent window), a drift
event is only emitted after ``patience`` *consecutive* rejections; the
monitor then re-baselines itself on the recent sample and the owning
detector may re-reference its window.

The monitor is O(baseline + recent) memory and never looks at the
curves themselves — it composes with every scorer kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.utils.validation import as_float_array, check_in_range, check_int

__all__ = ["DriftEvent", "ks_two_sample", "DepthRankDrift"]


@dataclass(frozen=True)
class DriftEvent:
    """One emitted drift decision.

    Attributes
    ----------
    n_seen:
        Total scores observed by the monitor when the event fired.
    statistic:
        The KS ``D`` of the firing check.
    critical:
        The rejection bound ``D`` exceeded.
    baseline_size, recent_size:
        Sample sizes entering the test.
    """

    n_seen: int
    statistic: float
    critical: float
    baseline_size: int
    recent_size: int


def ks_two_sample(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``sup |F_a - F_b|``.

    Exact over the pooled support (both ECDFs evaluated at every pooled
    point), dependency-free.
    """
    a = np.sort(np.asarray(sample_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(sample_b, dtype=np.float64).ravel())
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(n_a: int, n_b: int, alpha: float) -> float:
    """Classical large-sample two-sample KS rejection bound at ``alpha``."""
    c_alpha = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c_alpha * np.sqrt((n_a + n_b) / (n_a * n_b)))


class DepthRankDrift:
    """Rolling KS monitor over the outlyingness-score stream.

    Parameters
    ----------
    baseline_size:
        Scores captured as the reference distribution (the first
        ``baseline_size`` scores after construction or re-baselining).
    recent_size:
        Rolling window compared against the baseline.
    alpha:
        Test level of each KS check.
    patience:
        Consecutive rejections required before an event is emitted
        (burst suppression); each emission re-baselines the monitor on
        the recent window.
    min_gap:
        Minimum number of scores between two checks (1 = check on every
        update once the recent window is full); spacing checks out
        keeps adjacent tests from reusing almost-identical windows.
    """

    def __init__(
        self,
        baseline_size: int = 256,
        recent_size: int = 128,
        alpha: float = 0.01,
        patience: int = 2,
        min_gap: int = 16,
    ):
        self.baseline_size = check_int(baseline_size, "baseline_size", minimum=8)
        self.recent_size = check_int(recent_size, "recent_size", minimum=8)
        self.alpha = check_in_range(alpha, 0.0, 1.0, "alpha", inclusive=(False, False))
        self.patience = check_int(patience, "patience", minimum=1)
        self.min_gap = check_int(min_gap, "min_gap", minimum=1)
        self._baseline = np.empty(self.baseline_size)
        self._baseline_fill = 0
        self._recent = np.empty(self.recent_size)
        self._recent_fill = 0
        self._cursor = 0
        self._streak = 0
        self._since_check = 0
        self.n_seen = 0
        self.n_checks = 0
        self.events: list[DriftEvent] = []
        self.attach_telemetry(NULL_TELEMETRY)

    def attach_telemetry(self, telemetry, kind: str = "-") -> None:
        """Bind the drift check/event counters, labelled by detector kind."""
        telemetry = resolve_telemetry(None, telemetry)
        self._m_checks = telemetry.counter("streaming_drift_checks_total", kind=kind)
        self._m_events = telemetry.counter("streaming_drift_events_total", kind=kind)

    # ------------------------------------------------------------------ state
    @property
    def baselined(self) -> bool:
        return self._baseline_fill == self.baseline_size

    @property
    def last_statistic(self) -> float | None:
        return self._last_statistic if self.n_checks else None

    def rebase(self, scores=None) -> None:
        """Re-baseline on ``scores`` (default: the current recent window)."""
        if scores is None:
            scores = self.recent_scores()
        scores = as_float_array(scores, "scores").ravel()
        take = min(scores.size, self.baseline_size)
        self._baseline[:take] = scores[-take:]
        self._baseline_fill = take
        self._recent_fill = 0
        self._cursor = 0
        self._streak = 0
        self._since_check = 0

    def recent_scores(self) -> np.ndarray:
        """The rolling recent window, oldest → newest (a copy)."""
        if self._recent_fill < self.recent_size:
            return self._recent[: self._recent_fill].copy()
        return np.concatenate(
            [self._recent[self._cursor :], self._recent[: self._cursor]]
        )

    # ------------------------------------------------------------------ updates
    def update(self, scores) -> DriftEvent | None:
        """Fold new scores in; returns a :class:`DriftEvent` on drift."""
        scores = np.atleast_1d(as_float_array(scores, "scores")).ravel()
        event = None
        for x in scores:
            self.n_seen += 1
            if self._baseline_fill < self.baseline_size:
                self._baseline[self._baseline_fill] = x
                self._baseline_fill += 1
                continue
            self._recent[self._cursor] = x
            self._cursor = (self._cursor + 1) % self.recent_size
            self._recent_fill = min(self._recent_fill + 1, self.recent_size)
            self._since_check += 1
            if self._recent_fill < self.recent_size or self._since_check < self.min_gap:
                continue
            fired = self._check()
            if fired is not None:
                event = fired
        return event

    def _check(self) -> DriftEvent | None:
        self._since_check = 0
        self.n_checks += 1
        self._m_checks.inc()
        statistic = ks_two_sample(self._baseline, self._recent)
        self._last_statistic = statistic
        critical = ks_critical_value(self.baseline_size, self.recent_size, self.alpha)
        if statistic <= critical:
            self._streak = 0
            return None
        self._streak += 1
        if self._streak < self.patience:
            return None
        event = DriftEvent(
            n_seen=self.n_seen,
            statistic=statistic,
            critical=critical,
            baseline_size=self.baseline_size,
            recent_size=self.recent_size,
        )
        self.events.append(event)
        self._m_events.inc()
        self.rebase()
        return event

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DepthRankDrift(baseline={self.baseline_size}, "
            f"recent={self.recent_size}, alpha={self.alpha}, "
            f"events={len(self.events)})"
        )
