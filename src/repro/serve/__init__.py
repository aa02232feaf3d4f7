"""Analysis-as-a-service daemon (``repro serve``).

Stdlib-only asyncio HTTP/JSON front end over the same analysis code
paths the CLI drives: lowered programs, solved solutions, and SCC
summaries stay hot in bounded in-memory LRU tiers keyed by the
existing content hashes, duplicate in-flight requests coalesce onto
one computation, warm re-analysis routes through the incremental
replay engine, and cold solves run in the fault-isolated process
pool with per-request budgets.

Layout:

* :mod:`repro.serve.payload` — worker-side result rendering: the
  JSON-safe analysis and check payloads (digests, pair census,
  counters) and the cache-tier classifier.
* :mod:`repro.serve.core` — :class:`~repro.serve.core.AnalysisService`,
  the transport-free service core (caches, coalescing, admission,
  budgets, metrics) shared by the daemon and tests.  Each endpoint
  builds a :class:`repro.runner.Request`, the same request type the
  CLI runs.
* :mod:`repro.serve.http` — the asyncio HTTP adapter mapping
  ``POST /analyze`` / ``POST /check`` / ``POST /query`` /
  ``POST /slice`` / ``GET /metrics`` onto the service core.
"""

from .core import AnalysisService, ServeConfig  # noqa: F401
