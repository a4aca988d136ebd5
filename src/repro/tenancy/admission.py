"""Weighted-fair admission for the tenancy plane.

:class:`WeightedFairQueue` (per-tenant bounded queues under deficit
round-robin) lives in :mod:`repro.serving.admission`, beside the
:class:`~repro.serving.admission.AdmissionQueue` it wraps, because the
single-tenant server drives it too; it is re-exported here as the
tenancy plane's admission layer.
"""

from repro.serving.admission import TenantQueueSpec, WeightedFairQueue

__all__ = ["TenantQueueSpec", "WeightedFairQueue"]
