"""Run health: which alerts a run has, as a fold over its recorded facts.

:func:`alerts` is the one place that decides a run's WARN / CRIT
verdicts. It walks the telemetry rows the run wrote, in record order,
through the rolling-window threshold rules of :class:`HealthMonitor`:

* ``train.update`` rows — KL, clip fraction, entropy, gradient norm,
  explained variance, reward, non-finite values;
* ``query`` rows — estimator calibration (confidence vs realized frame
  score; one alert per crossing, re-armed after recovery) and, over
  approximation-set answers, calibration drift: the
  signed predicted-vs-observed bias of a rolling window, escalating
  WARN → CRIT and re-arming after recovery;
* ``drift`` rows — one ``interest_drift`` per fired trigger;
* SLOs — after the rows, one ``slo_burn`` / ``slo_violation`` per
  recorded objective whose final status (:func:`repro.obs.slo.statuses`,
  itself a fold over the same rows) has a severity.

Nothing is computed while the run is live and nothing is written back:
the report's sections (``repro report``, ``repro watch``) call
:func:`alerts` on the loaded :class:`~repro.obs.rundir.Run`, so every
view agrees by construction, works on any recorded directory, and
always reflects the current rule pack. The
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

from . import slo as _slo
from .rundir import Run

WARN = "WARN"
CRIT = "CRIT"

#: Escalation order of the deduplicated calibration-drift rule.
_RANK = {None: 0, WARN: 1, CRIT: 2}

#: Rule thresholds, sized for the paper's PPO.
KL_WARN = 0.5                     # healthy PPO-clip KL is ~1e-3..1e-1
KL_CRIT = 2.0                     # far beyond any trust region
CLIP_FRACTION_WARN = 0.5
CLIP_FRACTION_CRIT = 0.9
ENTROPY_COLLAPSE_FRACTION = 0.05  # vs the run's initial entropy
GRAD_NORM_WARN_RATIO = 10.0       # vs rolling median
GRAD_NORM_CRIT_RATIO = 100.0
EXPLAINED_VARIANCE_WARN = -0.5    # sustained (window mean)
REWARD_DROP_WARN_FRACTION = 0.5   # drop vs best, of reward range
CALIBRATION_WARN = 0.4            # mean |confidence − realized|
MIN_WINDOW = 3                    # samples needed before relative rules fire
WINDOW = 10                       # rolling window of the relative rules

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

    def __init__(self) -> None:
        self._grad_norms: deque[float] = deque(maxlen=WINDOW)
        self._explained: deque[float] = deque(maxlen=WINDOW)
        self._calibration: deque[float] = deque(maxlen=WINDOW)
        self._rewards: deque[float] = deque(maxlen=WINDOW)
        self._initial_entropy: Optional[float] = None
        self._best_reward = -math.inf
        self._worst_reward = math.inf
        #: (predicted, observed) of the last approximation-set answers.
        self._answers: deque[tuple[float, float]] = deque(maxlen=DRIFT_WINDOW)
        #: Highest calibration-drift severity already alerted.
        self._drift_published: Optional[str] = None
        #: Whether the calibration window is above CALIBRATION_WARN.
        self._miscalibrated = False

    def observe_update(self, fields: dict[str, Any]) -> list[Alert]:
        """Check one ``train.update`` record (an IterationRecord dict)."""
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
        if math.isfinite(kl) and kl > KL_CRIT:
            new.append(Alert(
                CRIT, "kl_spike",
                f"KL divergence {kl:.3f} exceeds {KL_CRIT} — the policy "
                "jumped far outside the trust region",
                value=kl, threshold=KL_CRIT, iteration=iteration,
            ))
        elif math.isfinite(kl) and kl > KL_WARN:
            new.append(Alert(
                WARN, "kl_spike",
                f"KL divergence {kl:.3f} exceeds {KL_WARN}",
                value=kl, threshold=KL_WARN, iteration=iteration,
            ))

        clip = float(fields.get("clip_fraction", 0.0) or 0.0)
        if clip > CLIP_FRACTION_CRIT:
            new.append(Alert(
                CRIT, "clip_saturation",
                f"clip fraction {clip:.2f} — nearly every sample is "
                "clipped, the surrogate gradient is mostly zeroed",
                value=clip, threshold=CLIP_FRACTION_CRIT,
                iteration=iteration,
            ))
        elif clip > CLIP_FRACTION_WARN:
            new.append(Alert(
                WARN, "clip_saturation",
                f"clip fraction {clip:.2f} exceeds {CLIP_FRACTION_WARN}",
                value=clip, threshold=CLIP_FRACTION_WARN,
                iteration=iteration,
            ))

        entropy = fields.get("entropy")
        if entropy is not None and math.isfinite(float(entropy)):
            entropy = float(entropy)
            if self._initial_entropy is None and entropy > 0:
                self._initial_entropy = entropy
            elif (
                self._initial_entropy
                and entropy < ENTROPY_COLLAPSE_FRACTION * self._initial_entropy
            ):
                new.append(Alert(
                    WARN, "entropy_collapse",
                    f"entropy {entropy:.4f} fell below "
                    f"{ENTROPY_COLLAPSE_FRACTION:.0%} of the initial "
                    f"{self._initial_entropy:.4f} — the policy may have "
                    "collapsed prematurely",
                    value=entropy,
                    threshold=ENTROPY_COLLAPSE_FRACTION * self._initial_entropy,
                    iteration=iteration,
                ))

        grad = fields.get("grad_norm")
        if grad is not None and math.isfinite(float(grad)):
            grad = float(grad)
            if len(self._grad_norms) >= MIN_WINDOW:
                ordered = sorted(self._grad_norms)
                median = ordered[len(ordered) // 2]
                if median > 0 and grad > GRAD_NORM_CRIT_RATIO * median:
                    new.append(Alert(
                        CRIT, "grad_norm_spike",
                        f"pre-clip gradient norm {grad:.3g} is more than "
                        f"{GRAD_NORM_CRIT_RATIO:.0f}x the rolling median "
                        f"{median:.3g}",
                        value=grad,
                        threshold=GRAD_NORM_CRIT_RATIO * median,
                        iteration=iteration,
                    ))
                elif median > 0 and grad > GRAD_NORM_WARN_RATIO * median:
                    new.append(Alert(
                        WARN, "grad_norm_spike",
                        f"pre-clip gradient norm {grad:.3g} is more than "
                        f"{GRAD_NORM_WARN_RATIO:.0f}x the rolling median "
                        f"{median:.3g}",
                        value=grad,
                        threshold=GRAD_NORM_WARN_RATIO * median,
                        iteration=iteration,
                    ))
            self._grad_norms.append(grad)

        ev = fields.get("explained_variance")
        if ev is not None and math.isfinite(float(ev)):
            self._explained.append(float(ev))
            if len(self._explained) >= MIN_WINDOW:
                mean_ev = sum(self._explained) / len(self._explained)
                if mean_ev < EXPLAINED_VARIANCE_WARN:
                    new.append(Alert(
                        WARN, "critic_useless",
                        f"explained variance averaged {mean_ev:.2f} over the "
                        f"last {len(self._explained)} iterations — the "
                        "critic is worse than predicting the mean return",
                        value=mean_ev, threshold=EXPLAINED_VARIANCE_WARN,
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
                len(self._rewards) >= MIN_WINDOW
                and span > 1e-9
                and reward < self._best_reward - REWARD_DROP_WARN_FRACTION * span
            ):
                new.append(Alert(
                    WARN, "reward_collapse",
                    f"mean episode reward {reward:.4f} dropped more than "
                    f"{REWARD_DROP_WARN_FRACTION:.0%} of the observed range "
                    f"below the best {self._best_reward:.4f}",
                    value=reward,
                    threshold=self._best_reward
                    - REWARD_DROP_WARN_FRACTION * span,
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
        """Check one estimator calibration pair from a routed query.

        Alerts once when the window's mean error crosses above
        :data:`CALIBRATION_WARN` and re-arms once it falls back.
        """
        error = abs(float(confidence) - float(realized))
        if not math.isfinite(error):
            return []
        self._calibration.append(error)
        if len(self._calibration) < MIN_WINDOW:
            return []
        mean_error = sum(self._calibration) / len(self._calibration)
        crossed = mean_error > CALIBRATION_WARN and not self._miscalibrated
        self._miscalibrated = mean_error > CALIBRATION_WARN
        if not crossed:
            return []
        return [Alert(
            WARN, "estimator_miscalibrated",
            f"mean |confidence − realized| is {mean_error:.2f} "
            f"over the last {len(self._calibration)} queries — "
            "the answerability estimator is poorly calibrated",
            value=mean_error, threshold=CALIBRATION_WARN,
        )]

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


def _slo_alert(status: dict[str, Any]) -> Alert:
    """The alert of an objective whose final status has a severity."""
    name = status["name"]
    if status["kind"] == "window":
        message = (
            f"SLO '{status['spec']}' burning error budget: "
            f"{status['bad_fraction']:.0%} of the last "
            f"{status['n_samples']} samples violate the threshold "
            f"(burn rate {status['burn_rate']:.1f}x slow / "
            f"{status['fast_burn_rate']:.1f}x fast, "
            f"{name} = {status['value']:.4g} "
            f"vs {status['threshold']:.4g})"
        )
        exemplars = status["exemplar_trace_ids"]
        if exemplars:
            message += (
                "; worst traces: " + ", ".join(exemplars)
                + " (repro analyze --trace <id>)"
            )
        rule = "slo_burn"
    else:
        message = (
            f"SLO '{status['spec']}' violated: "
            f"{status['value']:.4g} vs threshold "
            f"{status['threshold']:.4g}"
        )
        rule = "slo_violation"
    return Alert(
        status["severity"], rule, message,
        value=status["value"], threshold=status["threshold"],
    )


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
    }
    found: list[Alert] = []
    for record in run.records:
        rule = rules.get(record.get("stream"))
        if rule is not None:
            found += rule(record)
    found += [
        _slo_alert(status) for status in _slo.statuses(run) if status["severity"]
    ]
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
