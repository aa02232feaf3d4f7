"""Option vocabularies the CLI's argument parser offers.

Import-free on purpose: :mod:`repro.cli` builds its parser from these
without loading the solvers or the experiment drivers that use them
(:mod:`repro.analysis.common`, :mod:`repro.report.experiments`).
"""

#: Scheduling strategies the solvers accept.  The paper notes the
#: algorithms converge to the same solution under any strategy;
#: ``"fifo"`` is the original one-fact-per-pop queue (kept for the
#: determinism cross-check), ``"batched"`` drains every pending fact
#: at a port through a single transfer application, ``"scc"`` batches
#: the same way but pops ports in topological order of the port
#: dependency graph's strongly connected components (round-robin
#: inside each SCC), so downstream components see their inputs
#: saturated before they run.
SCHEDULES = ("batched", "fifo", "scc")

#: Tables/figures :mod:`repro.report.experiments` regenerates, in the
#: order ``repro experiment all`` prints them.
EXPERIMENT_IDS = ("fig2", "fig3", "fig4", "fig6", "fig7", "cost",
                  "opt42", "perf43", "struct51", "gap", "checkers",
                  "slicing")
