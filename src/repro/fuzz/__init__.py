"""Differential fuzzing of the points-to analyses.

The subsystem has four parts, mirroring the classic ground-truth
cross-checking methodology (cut-shortcut, GPG):

* :mod:`repro.fuzz.generator` — a seeded random generator of small,
  well-typed, UB-free pointer-manipulating C programs, emitting both
  the source text and an expected-feature manifest;
* :mod:`repro.fuzz.concrete` — a concrete interpreter over the
  pycparser AST (independent of the lowering *and* of the generator's
  internal representation) that records the exact set of abstract
  locations each indirect read/write touches during execution;
* :mod:`repro.fuzz.oracle` — the differential checker asserting the
  soundness lattice concrete ⊆ CS ⊆ CI ⊆ flow-insensitive at every
  indirect memory operation, plus determinism across worklist
  schedules, lowering-cache hit/miss, and ``--jobs`` fan-out;
* :mod:`repro.fuzz.shrink` — a greedy statement-tree minimizer that
  reduces any failing program before it is reported.

:mod:`repro.fuzz.mutations` provides named, deliberately broken
transfer rules used to prove the oracle actually catches unsoundness
(and that the shrinker produces small reproducers).
"""
