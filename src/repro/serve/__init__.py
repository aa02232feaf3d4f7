"""Analysis-as-a-service daemon (``repro serve``).

Stdlib-only asyncio HTTP/JSON front end over the same request path
the CLI drives: every request runs in the fault-isolated process pool
with per-request budgets, its JSON answer stays hot in a bounded
in-memory LRU keyed by the request and the existing content hash,
duplicate in-flight requests coalesce onto one computation, and warm
re-analysis in the workers replays persisted SCC summaries.

Layout:

* :mod:`repro.serve.payload` — worker-side result rendering: the
  JSON-safe analysis and check payloads (digests, pair census,
  counters) and the cache-tier classifier.
* :mod:`repro.serve.core` — :class:`~repro.serve.core.AnalysisService`,
  the transport-free service core (payload LRU, coalescing, admission,
  budgets, metrics) shared by the daemon and tests.  Each endpoint
  builds a :class:`repro.runner.Request`, the same request type the
  CLI runs, and hands it to the pool.
* :mod:`repro.serve.http` — the asyncio HTTP adapter mapping
  ``POST /analyze`` / ``POST /check`` / ``POST /query`` /
  ``POST /slice`` / ``GET /metrics`` onto the service core.
"""

from .core import AnalysisService, ServeConfig  # noqa: F401
