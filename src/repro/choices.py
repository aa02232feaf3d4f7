"""Option vocabularies the CLI's argument parser offers.

Import-free on purpose: :mod:`repro.cli` builds its parser from these
without loading the solvers or the experiment drivers that use them
(:mod:`repro.analysis.common`, :mod:`repro.report.experiments`).
"""

#: Scheduling strategies the solvers accept.  The paper notes the
#: algorithms converge to the same solution under any strategy:
#: ``"batched"`` (the production engine) drains every pending fact at
#: a port through a single transfer application, and ``"fifo"`` is
#: the original one-fact-per-pop queue, kept as the reference every
#: equivalence check compares against.
SCHEDULES = ("batched", "fifo")

#: Directions a dependence-graph slice walks: ``backward`` to what a
#: point depends on, ``forward`` to what depends on it.
DIRECTIONS = ("backward", "forward")

#: Tables/figures :mod:`repro.report.experiments` regenerates, in the
#: order ``repro experiment all`` prints them.
EXPERIMENT_IDS = ("fig2", "fig3", "fig4", "fig6", "fig7", "cost",
                  "opt42", "perf43", "struct51", "gap", "checkers",
                  "slicing")
