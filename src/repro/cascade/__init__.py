"""Cost-aware cascade selection (the learned-optimizer layer).

``repro.cascade`` routes selector traffic by *predicted cost as well as
quality*, in the spirit of BAO/MSCN-style learned query optimizers:

* :mod:`repro.cascade.cost_model` — a learned per-tier / per-detector
  runtime + peak-memory predictor, trained from audited measurements,
  with a deterministic analytic fallback;
* :mod:`repro.cascade.router` — the confidence-gated cascade (fast tier
  answers confident windows, uncertain ones escalate to the teacher) and
  multi-objective SLO admission over priced plans;
* :mod:`repro.cascade.plan` — the admit/forward/escalate step the serving
  and streaming layers share;
* :mod:`repro.cascade.harvest` — measuring cost observations at the
  forward/detect sites and harvesting training labels from audit logs.
"""

from .cost_model import (
    COST_FEATURE_NAMES,
    CostModel,
    CostObservation,
    cost_features,
    cost_features_cached,
)
from .harvest import harvest_cost_observations, observed_cost
from .plan import SelectionPlan
from .router import (
    DEFAULT_THRESHOLD,
    PLAN_NAMES,
    AdmitDecision,
    CalibrationResult,
    CascadeRouter,
    calibrate_margin_threshold,
    margins,
)

__all__ = [
    "COST_FEATURE_NAMES",
    "CostModel",
    "CostObservation",
    "cost_features",
    "cost_features_cached",
    "harvest_cost_observations",
    "observed_cost",
    "DEFAULT_THRESHOLD",
    "PLAN_NAMES",
    "AdmitDecision",
    "CalibrationResult",
    "CascadeRouter",
    "calibrate_margin_threshold",
    "margins",
    "SelectionPlan",
]
