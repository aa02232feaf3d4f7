"""Points-to analyses: the paper's contribution.

* :mod:`~repro.analysis.insensitive` — Figure 1's context-insensitive
  worklist algorithm.
* :mod:`~repro.analysis.sensitive` — Figure 5's maximally
  context-sensitive algorithm with qualified pairs, plus §4.2's
  CI-based pruning optimizations.
* :mod:`~repro.analysis.flowinsensitive` — the Weihl-style program-wide
  baseline the paper's introduction contrasts with.
* :mod:`~repro.analysis.compare` — spurious-pair computation (CI ∖ CS).
* :mod:`~repro.analysis.stats` — every metric in Figures 2/3/4/6/7 and
  the §4.2/§4.3 text claims.
* :mod:`~repro.analysis.clients` — mod/ref and def/use consumers.
* :mod:`~repro.analysis.summaries` /
  :mod:`~repro.analysis.incremental` — per-SCC escape summaries and
  the content-keyed incremental re-analysis driver built on them.
"""
