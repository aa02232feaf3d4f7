"""The parallel suite driver: worker fan-out and result fidelity."""

import os

import pytest

from repro.errors import ReproError
from repro.runner import INLINE_TASK_THRESHOLD, Request, run

NAMES = ["anagram", "backprop", "span"]


def _suite_report(names, jobs=None, flavors=("insensitive", "sensitive"),
                  fail_fast=False, force_pool=False, **fields):
    return run([Request.build("analyze", name, flavors=flavors, **fields)
                for name in names], jobs, fail_fast=fail_fast,
               force_pool=force_pool)


def _suite(names, jobs=None, **fields):
    """``{name: {flavor: result}}``, raising on the first failure."""
    return _suite_report(names, jobs, fail_fast=True, **fields).results


def _files(paths, jobs=None):
    """``[(path, {flavor: result})]`` with each file its own program,
    raising on the first failure."""
    report = run([Request.build("analyze", (path,), cache=False)
                  for path in paths], jobs, fail_fast=True)
    return [(o.name, o.results) for o in report.outcomes]


def _snapshot(result):
    """Structural summary that is comparable across processes (ports
    differ by identity between object graphs, so compare censuses)."""
    return (result.counters.as_dict(),
            sorted(len(result.solution.pairs(o))
                   for o in result.solution.outputs()))


class TestRunSuite:
    def test_inline_matches_parallel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        inline = _suite(names=NAMES, jobs=1)
        fanned = _suite(names=NAMES, jobs=2)
        assert set(inline) == set(fanned) == set(NAMES)
        for name in NAMES:
            for flavor in ("insensitive", "sensitive"):
                a, b = inline[name][flavor], fanned[name][flavor]
                assert _snapshot(a)[1] == _snapshot(b)[1]
            # CI counters are schedule- and process-invariant.
            assert inline[name]["insensitive"].counters.as_dict() \
                == fanned[name]["insensitive"].counters.as_dict()

    def test_results_are_identity_consistent(self, tmp_path, monkeypatch):
        """CI and CS results for one program must reference the same
        shipped object graph — ports from one index into the other."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        results = _suite(names=["anagram"], jobs=2)["anagram"]
        ci, cs = results["insensitive"], results["sensitive"]
        assert ci.program is cs.program
        for output in ci.solution.outputs():
            assert output.node.graph.name in ci.program.functions \
                or output.node.graph is not None

    def test_flavor_selection(self):
        results = _suite(names=["span"], jobs=1,
                         flavors=("flowinsensitive",))
        assert set(results["span"]) == {"flowinsensitive"}

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ReproError, match="unknown analysis flavor"):
            _suite(names=["span"], flavors=("optimistic",))

    def test_fifo_schedule_passthrough(self):
        batched = _suite(names=["span"], jobs=1)
        fifo = _suite(names=["span"], jobs=1, schedule="fifo")
        assert _snapshot(batched["span"]["insensitive"])[1] \
            == _snapshot(fifo["span"]["insensitive"])[1]


class TestInlineFallback:
    """Tiny sweeps skip the process pool (executor setup dominates and
    a 3-program parallel sweep used to *lose* to the serial one)."""

    def test_tiny_sweep_runs_in_caller(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert len(NAMES) <= INLINE_TASK_THRESHOLD
        report = _suite_report(names=NAMES, jobs=2)
        pids = {record["worker_pid"] for record in report.records}
        assert pids == {os.getpid()}

    def test_force_pool_crosses_processes(self, tmp_path, monkeypatch):
        # Two tasks: ``jobs`` clamps to the task count, so a single
        # task always runs inline no matter what.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        report = _suite_report(names=["span", "anagram"], jobs=2,
                               force_pool=True)
        pids = {record["worker_pid"] for record in report.records}
        assert os.getpid() not in pids

    def test_fault_injection_env_disables_inline(self, tmp_path,
                                                 monkeypatch):
        """Fault-injection sweeps must get real worker processes even
        when tiny — an injected ``os._exit`` would otherwise take the
        test runner down with it.  An *unknown* injection spec is
        harmless, so it proves routing without injecting anything."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULT_INJECT", "noop:never")
        report = _suite_report(names=["span", "anagram"], jobs=2)
        pids = {record["worker_pid"] for record in report.records}
        assert os.getpid() not in pids


class TestRunFiles:
    def test_files_are_independent_programs(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text("int x; int *p = &x; int main(void){return *p;}")
        b = tmp_path / "b.c"
        b.write_text("int y; int *q = &y; int f(void){return *q;}")
        results = _files([a, b], jobs=2)
        assert [path for path, _ in results] == [str(a), str(b)]
        progs = [res["insensitive"].program for _, res in results]
        assert progs[0] is not progs[1]
        names0 = set(progs[0].functions)
        names1 = set(progs[1].functions)
        assert "main" in names0 and "f" in names1
        assert "f" not in names0 and "main" not in names1

    def test_empty_input(self):
        assert _files([]) == []


class TestSliceGraphMemo:
    """``payload_only`` slices keep their dependence graphs, bounded."""

    def _slice(self, path):
        from repro.runner import execute

        return execute(Request.build(
            "slice", (str(path),), criterion=f"{path.name}:2",
            cache=False, payload_only=True)).payload

    def test_keeps_at_most_the_bound(self, tmp_path, monkeypatch):
        from collections import OrderedDict

        import repro.runner as runner

        monkeypatch.setattr(runner, "_GRAPHS", OrderedDict())
        monkeypatch.setattr(runner, "_GRAPHS_KEPT", 1)
        paths = []
        for tag in "ab":
            path = tmp_path / f"{tag}.c"
            path.write_text(f"int {tag}; int *p{tag} = &{tag};\n"
                            f"int main(void) {{ return *p{tag}; }}\n")
            paths.append(path)
        first = self._slice(paths[0])
        assert first["tier"] == "cold"
        assert self._slice(paths[0])["tier"] == "solution"
        assert self._slice(paths[1])["tier"] == "cold"
        assert len(runner._GRAPHS) == 1
        # The first graph was evicted: its next slice solves again,
        # to the same answer.
        again = self._slice(paths[0])
        assert again["tier"] == "cold"
        assert again["slice"] == first["slice"]
