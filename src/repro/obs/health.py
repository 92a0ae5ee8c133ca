"""Run health: which alerts a run has, as a fold over its recorded facts.

:func:`alerts` is the one place that decides a run's WARN / CRIT
verdicts. It walks the telemetry rows the run wrote, in record order,
through the rolling-window threshold rules of :class:`HealthMonitor`:

* ``train.update`` rows — KL, clip fraction, entropy, gradient norm,
  explained variance, reward, non-finite values;
* ``query`` rows — estimator calibration (confidence vs realized frame
  score) and, over approximation-set answers, calibration drift: the
  signed predicted-vs-observed bias of a rolling window, escalating
  WARN → CRIT and re-arming after recovery;
* ``drift`` rows — one ``interest_drift`` per fired trigger;
* ``slo`` rows — the status rows the live SLO tracker records; an
  objective alerts when its severity escalates (None → WARN → CRIT), so
  periodic evaluation of a long run yields alerts proportional to state
  changes, not to time.

Nothing is computed while the run is live and nothing is written back:
``repro report`` and ``repro watch`` call :func:`alerts` on the loaded
:class:`~repro.obs.rundir.Run`, so they agree by construction, work on
any recorded directory, and always reflect the current rule pack. The
rules take plain dicts, not trainer objects: ``repro.obs`` never imports
``repro.core``/``repro.rl`` (the dependency points the other way).

Rule sizing: CRIT thresholds mark runs that are mathematically broken
(non-finite losses, KL far beyond any trust region, gradient norms
orders of magnitude above the run's own median) and stay silent on
healthy micro-runs; WARN thresholds flag drifts worth a look (entropy
collapse, sustained useless critic, miscalibrated estimator).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from .rundir import Run

WARN = "WARN"
CRIT = "CRIT"

#: Escalation order of the deduplicated rules (calibration drift, SLOs).
_RANK = {None: 0, WARN: 1, CRIT: 2}

#: Calibration-drift window and bias thresholds (|mean(predicted) -
#: mean(observed)| over the last `window` approximation-set answers).
DRIFT_WINDOW = 32
DRIFT_MIN_WINDOW = 8
DRIFT_WARN_BIAS = 0.20
DRIFT_CRIT_BIAS = 0.35


@dataclass
class Alert:
    """One structured health alert."""

    severity: str                 # WARN | CRIT
    rule: str                     # e.g. "kl_spike", "non_finite"
    message: str
    value: Optional[float] = None
    threshold: Optional[float] = None
    iteration: Optional[int] = None


@dataclass
class HealthThresholds:
    """Tunable rule thresholds (defaults sized for the paper's PPO)."""

    kl_warn: float = 0.5          # healthy PPO-clip KL is ~1e-3..1e-1
    kl_crit: float = 2.0          # far beyond any trust region
    clip_fraction_warn: float = 0.5
    clip_fraction_crit: float = 0.9
    entropy_collapse_fraction: float = 0.05   # vs the run's initial entropy
    grad_norm_warn_ratio: float = 10.0        # vs rolling median
    grad_norm_crit_ratio: float = 100.0
    explained_variance_warn: float = -0.5     # sustained (window mean)
    reward_drop_warn_fraction: float = 0.5    # drop vs best, of reward range
    calibration_warn: float = 0.4             # mean |confidence − realized|
    min_window: int = 3           # samples needed before relative rules fire


#: Keys of ``train.update`` records that must stay finite.
_FINITE_KEYS = (
    "mean_episode_reward",
    "policy_loss",
    "value_loss",
    "entropy",
    "kl_divergence",
    "grad_norm",
)


class HealthMonitor:
    """The fold's state: rolling windows and the rules over them.

    Every ``observe_*`` takes the fields of one recorded row and returns
    the alerts that row raises.
    """

    def __init__(
        self,
        thresholds: Optional[HealthThresholds] = None,
        window: int = 10,
    ) -> None:
        self.thresholds = thresholds or HealthThresholds()
        self.window = window
        self._grad_norms: deque[float] = deque(maxlen=window)
        self._explained: deque[float] = deque(maxlen=window)
        self._calibration: deque[float] = deque(maxlen=window)
        self._rewards: deque[float] = deque(maxlen=window)
        self._initial_entropy: Optional[float] = None
        self._best_reward = -math.inf
        self._worst_reward = math.inf
        #: (predicted, observed) of the last approximation-set answers.
        self._answers: deque[tuple[float, float]] = deque(maxlen=DRIFT_WINDOW)
        #: Highest severity already alerted (escalation dedup): of the
        #: calibration drift, and per SLO objective.
        self._drift_published: Optional[str] = None
        self._slo_published: dict[str, Optional[str]] = {}

    def observe_update(self, fields: dict[str, Any]) -> list[Alert]:
        """Check one ``train.update`` record (an IterationRecord dict)."""
        t = self.thresholds
        iteration = fields.get("iteration")
        new: list[Alert] = []

        for key in _FINITE_KEYS:
            value = fields.get(key)
            if value is not None and not math.isfinite(float(value)):
                new.append(Alert(
                    CRIT, "non_finite",
                    f"{key} is {value!r} at iteration {iteration}",
                    iteration=iteration,
                ))

        kl = float(fields.get("kl_divergence", 0.0) or 0.0)
        if math.isfinite(kl) and kl > t.kl_crit:
            new.append(Alert(
                CRIT, "kl_spike",
                f"KL divergence {kl:.3f} exceeds {t.kl_crit} — the policy "
                "jumped far outside the trust region",
                value=kl, threshold=t.kl_crit, iteration=iteration,
            ))
        elif math.isfinite(kl) and kl > t.kl_warn:
            new.append(Alert(
                WARN, "kl_spike",
                f"KL divergence {kl:.3f} exceeds {t.kl_warn}",
                value=kl, threshold=t.kl_warn, iteration=iteration,
            ))

        clip = float(fields.get("clip_fraction", 0.0) or 0.0)
        if clip > t.clip_fraction_crit:
            new.append(Alert(
                CRIT, "clip_saturation",
                f"clip fraction {clip:.2f} — nearly every sample is "
                "clipped, the surrogate gradient is mostly zeroed",
                value=clip, threshold=t.clip_fraction_crit,
                iteration=iteration,
            ))
        elif clip > t.clip_fraction_warn:
            new.append(Alert(
                WARN, "clip_saturation",
                f"clip fraction {clip:.2f} exceeds {t.clip_fraction_warn}",
                value=clip, threshold=t.clip_fraction_warn,
                iteration=iteration,
            ))

        entropy = fields.get("entropy")
        if entropy is not None and math.isfinite(float(entropy)):
            entropy = float(entropy)
            if self._initial_entropy is None and entropy > 0:
                self._initial_entropy = entropy
            elif (
                self._initial_entropy
                and entropy < t.entropy_collapse_fraction * self._initial_entropy
            ):
                new.append(Alert(
                    WARN, "entropy_collapse",
                    f"entropy {entropy:.4f} fell below "
                    f"{t.entropy_collapse_fraction:.0%} of the initial "
                    f"{self._initial_entropy:.4f} — the policy may have "
                    "collapsed prematurely",
                    value=entropy,
                    threshold=t.entropy_collapse_fraction * self._initial_entropy,
                    iteration=iteration,
                ))

        grad = fields.get("grad_norm")
        if grad is not None and math.isfinite(float(grad)):
            grad = float(grad)
            if len(self._grad_norms) >= t.min_window:
                ordered = sorted(self._grad_norms)
                median = ordered[len(ordered) // 2]
                if median > 0 and grad > t.grad_norm_crit_ratio * median:
                    new.append(Alert(
                        CRIT, "grad_norm_spike",
                        f"pre-clip gradient norm {grad:.3g} is more than "
                        f"{t.grad_norm_crit_ratio:.0f}x the rolling median "
                        f"{median:.3g}",
                        value=grad,
                        threshold=t.grad_norm_crit_ratio * median,
                        iteration=iteration,
                    ))
                elif median > 0 and grad > t.grad_norm_warn_ratio * median:
                    new.append(Alert(
                        WARN, "grad_norm_spike",
                        f"pre-clip gradient norm {grad:.3g} is more than "
                        f"{t.grad_norm_warn_ratio:.0f}x the rolling median "
                        f"{median:.3g}",
                        value=grad,
                        threshold=t.grad_norm_warn_ratio * median,
                        iteration=iteration,
                    ))
            self._grad_norms.append(grad)

        ev = fields.get("explained_variance")
        if ev is not None and math.isfinite(float(ev)):
            self._explained.append(float(ev))
            if len(self._explained) >= t.min_window:
                mean_ev = sum(self._explained) / len(self._explained)
                if mean_ev < t.explained_variance_warn:
                    new.append(Alert(
                        WARN, "critic_useless",
                        f"explained variance averaged {mean_ev:.2f} over the "
                        f"last {len(self._explained)} iterations — the "
                        "critic is worse than predicting the mean return",
                        value=mean_ev, threshold=t.explained_variance_warn,
                        iteration=iteration,
                    ))

        reward = fields.get("mean_episode_reward")
        if reward is not None and math.isfinite(float(reward)):
            reward = float(reward)
            self._rewards.append(reward)
            self._best_reward = max(self._best_reward, reward)
            self._worst_reward = min(self._worst_reward, reward)
            span = self._best_reward - self._worst_reward
            if (
                len(self._rewards) >= t.min_window
                and span > 1e-9
                and reward < self._best_reward - t.reward_drop_warn_fraction * span
            ):
                new.append(Alert(
                    WARN, "reward_collapse",
                    f"mean episode reward {reward:.4f} dropped more than "
                    f"{t.reward_drop_warn_fraction:.0%} of the observed range "
                    f"below the best {self._best_reward:.4f}",
                    value=reward,
                    threshold=self._best_reward
                    - t.reward_drop_warn_fraction * span,
                    iteration=iteration,
                ))

        return new

    def observe_query(self, fields: dict[str, Any]) -> list[Alert]:
        """Check one ``query`` row: estimator calibration, then its drift."""
        pair = _calibration_pair(fields)
        if pair is None:
            return []
        new = self.observe_calibration(*pair)
        if fields.get("used_approximation"):
            new += self._observe_answer(*pair)
        return new

    def observe_calibration(
        self, confidence: float, realized: float
    ) -> list[Alert]:
        """Check one estimator calibration pair from a routed query."""
        t = self.thresholds
        new: list[Alert] = []
        error = abs(float(confidence) - float(realized))
        if math.isfinite(error):
            self._calibration.append(error)
            if len(self._calibration) >= t.min_window:
                mean_error = sum(self._calibration) / len(self._calibration)
                if mean_error > t.calibration_warn:
                    new.append(Alert(
                        WARN, "estimator_miscalibrated",
                        f"mean |confidence − realized| is {mean_error:.2f} "
                        f"over the last {len(self._calibration)} queries — "
                        "the answerability estimator is poorly calibrated",
                        value=mean_error, threshold=t.calibration_warn,
                    ))
        return new

    def _observe_answer(self, predicted: float, observed: float) -> list[Alert]:
        """Calibration drift over the last approximation-set answers.

        Alerts only on severity *escalation* (None → WARN → CRIT) and
        re-arms once the window's bias recovers below the WARN level.
        """
        self._answers.append((predicted, observed))
        n = len(self._answers)
        if n < DRIFT_MIN_WINDOW:
            return []
        mean_predicted = sum(p for p, _ in self._answers) / n
        mean_observed = sum(o for _, o in self._answers) / n
        bias = mean_predicted - mean_observed
        if abs(bias) >= DRIFT_CRIT_BIAS:
            severity: Optional[str] = CRIT
        elif abs(bias) >= DRIFT_WARN_BIAS:
            severity = WARN
        else:
            severity = None
        if _RANK[severity] <= _RANK[self._drift_published]:
            if severity is None:
                self._drift_published = None  # re-arm after recovery
            return []
        self._drift_published = severity
        direction = "over" if bias > 0 else "under"
        return [Alert(
            severity,
            "quality_calibration_drift",
            f"estimator confidence {direction}-predicts realized answer "
            f"quality: predicted-vs-observed bias {bias:+.2f} over the "
            f"last {n} approximation answers "
            f"(mean predicted {mean_predicted:.2f}, "
            f"mean observed {mean_observed:.2f})",
            value=bias,
            threshold=DRIFT_CRIT_BIAS if severity == CRIT else DRIFT_WARN_BIAS,
        )]

    def observe_drift(self, fields: dict[str, Any]) -> list[Alert]:
        """One ``drift`` row: a fired interest-drift trigger (informational)."""
        message = "interest drift detected"
        deviation = fields.get("mean_deviation")
        if deviation is not None:
            message += (
                f" after {fields.get('pending_count', '?')} low-confidence "
                f"queries (mean deviation {float(deviation):.2f})"
            )
        return [Alert(WARN, "interest_drift", message, value=deviation)]

    def observe_slo(self, fields: dict[str, Any]) -> list[Alert]:
        """Check one ``slo`` status row; alerts when its severity escalates."""
        severity = fields.get("severity")
        name = fields.get("name")
        if _RANK.get(severity, 0) <= _RANK[self._slo_published.get(name)]:
            return []
        self._slo_published[name] = severity
        if "burn_rate" in fields:  # windowed objective
            message = (
                f"SLO '{fields['spec']}' burning error budget: "
                f"{fields['bad_fraction']:.0%} of the last "
                f"{fields['n_samples']} samples violate the threshold "
                f"(burn rate {fields['burn_rate']:.1f}x slow / "
                f"{fields['fast_burn_rate']:.1f}x fast, "
                f"{name} = {fields['value']:.4g} "
                f"vs {fields['threshold']:.4g})"
            )
            exemplars = fields.get("exemplar_trace_ids") or []
            if exemplars:
                message += (
                    "; worst traces: " + ", ".join(exemplars)
                    + " (repro analyze --trace <id>)"
                )
            rule = "slo_burn"
        else:
            message = (
                f"SLO '{fields['spec']}' violated: "
                f"{fields['value']:.4g} vs threshold "
                f"{fields['threshold']:.4g}"
            )
            rule = "slo_violation"
        return [Alert(
            severity, rule, message,
            value=fields["value"], threshold=fields["threshold"],
        )]


def _calibration_pair(fields: dict[str, Any]) -> Optional[tuple[float, float]]:
    """(predicted, observed) of a ``query`` row; None when it has no pair."""
    confidence = fields.get("confidence")
    realized = fields.get("realized_frame_score")
    if confidence is None or realized is None:
        return None
    return float(confidence), float(realized)


def alerts(run: Run) -> list[Alert]:
    """Every alert of a recorded run, in record order (see module docstring)."""
    monitor = HealthMonitor()
    rules = {
        "train.update": monitor.observe_update,
        "query": monitor.observe_query,
        "drift": monitor.observe_drift,
        "slo": monitor.observe_slo,
    }
    found: list[Alert] = []
    for record in run.records:
        rule = rules.get(record.get("stream"))
        if rule is not None:
            found += rule(record)
    return found


def counts(found: Iterable[Alert]) -> dict[str, int]:
    """Alerts per severity; both severities are always present."""
    totals = {CRIT: 0, WARN: 0}
    for alert in found:
        totals[alert.severity] += 1
    return totals


def calibration_bias(run: Run) -> Optional[float]:
    """Signed mean(predicted − observed) over the calibration-drift window.

    The window is the last :data:`DRIFT_WINDOW` approximation-set
    answers of the run; ``None`` before the first one.
    """
    pairs = [
        _calibration_pair(q)
        for q in run.stream("query") if q.get("used_approximation")
    ]
    gaps = [predicted - observed for predicted, observed in filter(None, pairs)]
    window = gaps[-DRIFT_WINDOW:]
    return sum(window) / len(window) if window else None
