# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke fuzz-smoke check-smoke incremental-smoke serve-smoke slice-smoke tables examples verify-suite clean

install:
	$(PYTHON) setup.py develop

test: bench-smoke fuzz-smoke check-smoke incremental-smoke serve-smoke slice-smoke
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fast solver-throughput gate: reduced workload, two workers, asserts
# schedule equivalence and emits BENCH_solver.json at the repo root.
bench-smoke:
	$(PYTHON) benchmarks/bench_solver_throughput.py --smoke --jobs 2
	@test -s BENCH_solver.json || (echo "BENCH_solver.json missing" && exit 1)

# Differential-fuzzing gate: every generated program must satisfy
# concrete ⊆ CS ⊆ CI ⊆ FI plus the determinism and fixpoint oracles.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --count 50 --deep-every 25 --fail-fast

# Incremental-summary gate: cold → replay → edit-one-function on three
# suite programs; fails unless replays are digest-identical with zero
# SCCs re-solved and an edit re-solves strictly fewer SCCs than total.
incremental-smoke:
	$(PYTHON) benchmarks/incremental_smoke.py
	@test -s BENCH_incremental.json || (echo "BENCH_incremental.json missing" && exit 1)

# Analysis-daemon gate: start a real `repro serve` on an ephemeral
# port, fire 50+ mixed warm/cold analyze/check/query requests, and
# fail unless warm p50 beats cold p50 by ≥5x AND every served digest
# is byte-identical to a fresh CLI run (all three flavors).  Writes
# BENCH_serve.json at the repo root.
serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py
	@test -s BENCH_serve.json || (echo "BENCH_serve.json missing" && exit 1)

# Slicing gate: backward slices on three suite programs must be
# digest-identical across schedules, process pools, and cache states,
# and one generated fuzz program must pass the slice-soundness oracle
# (concrete def→use flows ⊆ dependence mem edges).
slice-smoke:
	$(PYTHON) benchmarks/slice_smoke.py
	@test -s BENCH_slice.json || (echo "BENCH_slice.json missing" && exit 1)

# Checker gate: run all five bug finders over the suite under every
# flavor and emit a SARIF log; the golden counts live in
# tests/analysis/checkers/test_suite_goldens.py.  The log is the largest
# stdout any gate writes through the CLI's last flush before os._exit,
# so it must also parse as JSON: a truncated flush fails here.
check-smoke:
	PYTHONPATH=src $(PYTHON) -m repro check --flavor all --format sarif > suite-findings.sarif
	@test -s suite-findings.sarif || (echo "suite-findings.sarif missing" && exit 1)
	@$(PYTHON) -m json.tool suite-findings.sarif > /dev/null || (echo "suite-findings.sarif is not valid JSON" && exit 1)

tables:
	$(PYTHON) examples/regenerate_paper_tables.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/modref_report.py
	$(PYTHON) examples/context_gap.py
	$(PYTHON) examples/strong_updates.py

# Compile and run the benchmark suite with the host C compiler (the
# suite must be real, working C; needs cc/gcc).
verify-suite:
	$(PYTHON) -m pytest tests/suite/test_compile_run.py -v

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
