"""The selection forward step shared by the serving and streaming layers.

:class:`SelectionPlan` admits a batch of selector windows against the SLO,
forwards it through the serving tier, escalates low-margin rows to the slow
tier and meters and audits the work.  The serving layer runs it once per
cache-missing batch; the stream engine admits once per flush and forwards
once per window-budgeted group, so a flush's forward step *is* the batch
forward step.  Without a router the plan is a (measured) call of the
tier's predict function, bitwise identical to the pre-cascade code path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs.metrics import Counter, default_registry
from .harvest import observed_cost
from .router import AdmitDecision, CascadeRouter, margins

#: key order of a ``last_cascade`` record (audit events serialise it as-is)
_SUMMARY_KEYS = ("plan", "slow_tier", "escalated_windows", "n_windows",
                 "n_new_windows", "threshold", "min_margin", "predicted_ms",
                 "predicted_mb", "actual_forward_ms", "fallback")


class SelectionPlan:
    """Admit, forward, escalate and meter selector windows for one layer."""

    def __init__(
        self,
        predict: Callable[[np.ndarray], np.ndarray],
        tier: str,
        window: int,
        layer: str,
        cascade: Optional[CascadeRouter] = None,
        latency_slo_ms: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
    ) -> None:
        self.predict = predict
        self.tier = tier
        self.window = int(window)
        self.layer = layer
        self.cascade = cascade
        self.latency_slo_ms = latency_slo_ms
        self.memory_budget_mb = memory_budget_mb
        registry = default_registry()
        self.escalated_windows = registry.register(Counter(
            "repro_cascade_escalated_windows_total",
            "windows escalated from the fast tier to the teacher",
            labels={"layer": layer}))
        self.slo_fallbacks = registry.register(Counter(
            "repro_cascade_slo_fallbacks_total",
            "forward batches where no plan fit the SLO and the cheapest ran",
            labels={"layer": layer}))

    def admit(self, n_windows: int, audit) -> Optional[AdmitDecision]:
        """SLO admission of ``n_windows`` (``None`` without a cascade);
        a fallback is metered and audited as ``slo_fallback``."""
        if self.cascade is None:
            return None
        decision = self.cascade.admit(n_windows, latency_slo_ms=self.latency_slo_ms,
                                      memory_budget_mb=self.memory_budget_mb)
        if decision.fallback:
            self.slo_fallbacks.inc()
            if audit.enabled:
                audit.record("slo_fallback", layer=self.layer,
                             n_windows=int(n_windows), **decision.as_dict())
        return decision

    def _measured(self, fn, tier: str, n_windows: int, audit) -> np.ndarray:
        """Run one forward pass; record a ``cost_observation`` when auditing.

        The measurement is a cost-model training label, never a routing
        input — audited runs stay decision-identical to unaudited ones.
        """
        if not audit.enabled:
            return fn()
        result, wall_ms, peak_mb = observed_cost(fn)
        audit.record("cost_observation", kind="selector_forward", target=tier,
                     n_windows=int(n_windows), window=self.window,
                     wall_ms=float(wall_ms), peak_mb=peak_mb)
        return result

    def forward(self, windows: np.ndarray, decision: Optional[AdmitDecision],
                audit) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Forward ``windows`` under the admitted plan.

        Returns ``(proba, escalated_mask, fast_margins)``: the mask only on
        the cascade plan, the margins on the cascade and fast plans.
        Escalations use the router's own predict path, so the serving
        tier's caches only ever hold fast-tier rows.
        """
        if decision is None:
            return self._measured(lambda: self.predict(windows), self.tier,
                                  len(windows), audit), None, None
        slow_tier = self.cascade.slow_tier
        if decision.plan == "teacher":
            return self._measured(lambda: self.cascade.forward_slow(windows),
                                  slow_tier, len(windows), audit), None, None
        fast = self._measured(lambda: self.predict(windows), self.tier,
                              len(windows), audit)
        fast_margins = margins(fast)
        if decision.plan == "fast":
            return fast, None, fast_margins
        mask = self.cascade.escalate_mask(fast, windows)
        if not mask.any():
            return fast, mask, fast_margins
        n_escalated = int(mask.sum())
        proba = np.array(fast, dtype=np.float64, copy=True)
        proba[mask] = self._measured(lambda: self.cascade.forward_slow(windows[mask]),
                                     slow_tier, n_escalated, audit)
        self.escalated_windows.inc(n_escalated)
        return proba, mask, fast_margins

    def summary(self, decision: AdmitDecision, **fields) -> Dict[str, object]:
        """The ``last_cascade`` record of one admitted batch; ``fields``
        carries its own figures (window count, escalations, min margin)."""
        record = dict(fields, plan=decision.plan, slow_tier=self.cascade.slow_tier,
                      threshold=float(self.cascade.threshold),
                      predicted_ms=float(decision.predicted_ms),
                      predicted_mb=float(decision.predicted_mb),
                      fallback=bool(decision.fallback))
        return {key: record[key] for key in _SUMMARY_KEYS if key in record}
