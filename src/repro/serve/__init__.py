"""The warm influence service: query lifetime split from sample lifetime.

``repro.serve`` keeps the expensive state of a run — the shared-memory
graph, the executor's worker pool, and the per-machine RR collections —
resident in :class:`~repro.core.pool.SamplePool` objects owned by an
:class:`InfluenceService`, and answers seed-selection queries (varying
``k``, accuracy, algorithm, and application variants) against *prefixes*
of the same samples.  A warm query returns the bit-identical seed set
the cold :func:`repro.api.run` produces, at a fraction of the latency.

:class:`ServingFrontend` exposes the service over an asyncio JSON-lines
TCP socket; ``python -m repro serve`` starts one from the CLI.
"""

from .service import QUERY_KINDS, InfluenceService, Query, default_costs
from .frontend import ServingFrontend, request

__all__ = [
    "QUERY_KINDS",
    "InfluenceService",
    "Query",
    "ServingFrontend",
    "default_costs",
    "request",
]
