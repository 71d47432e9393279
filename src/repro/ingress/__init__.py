"""Request-level ingress: carbon-aware routing above the slot kernels.

The stack below this package is slot-granular — arrival *counts*
``M_i^t`` flow into :class:`~repro.sim.kernel.EdgeSlotKernel` and the
aggregator.  ``repro.ingress`` adds the request level on top:

* :mod:`repro.ingress.request` — the :class:`SlaClass` service tiers
  and the deadline clamp;
* :mod:`repro.ingress.generator` — deterministic thinning of the base
  slot counts into per-class request counts (exact conservation);
* :mod:`repro.ingress.router` — admission, deadline-ordered deferral
  and carbon-aware release using price look-ahead, over queues of
  cohorts (one class's requests from one arrival slot, held as a count);
* :mod:`repro.ingress.stats` — per-slot payloads and run-level SLA
  accounting;
* :mod:`repro.ingress.adapter` — the aggregation seam that disguises
  the whole tier as a :class:`~repro.serve.adapters.StreamAdapter`.

Enable it with ``ServeConfig(ingress=IngressConfig().to_dict())``, or on
the CLI via ``repro serve --ingress [CONFIG.json]`` and ``repro soak
--ingress``.
"""

from repro.ingress.adapter import IngressAdapter, wrap_with_ingress
from repro.ingress.config import DEFAULT_CLASSES, IngressConfig
from repro.ingress.generator import RequestThinner
from repro.ingress.request import SlaClass, clamp_deadline
from repro.ingress.router import IngressRouter
from repro.ingress.stats import IngressStats, resolve_payload

__all__ = [
    "DEFAULT_CLASSES",
    "IngressAdapter",
    "IngressConfig",
    "IngressRouter",
    "IngressStats",
    "RequestThinner",
    "SlaClass",
    "clamp_deadline",
    "resolve_payload",
    "wrap_with_ingress",
]
