"""Incremental re-analysis driven by persisted per-SCC summaries.

The driver (:func:`analyze_incremental`) persists the summaries of
:mod:`repro.analysis.summaries` next to the lowering cache and, on the
next run, loads whatever is still valid — an SCC's entry is addressed
by its *content key* (body hashes + callee SCC keys), so "is this
summary reusable?" is answered by file lookup, no timestamps, no
dependency journal.  Three regimes fall out:

* **replay** — every SCC's entry loads: the solution is reconstructed
  without running a single transfer function (``sccs_resolved = 0``);
* **partial** — some SCCs are dirty (missing/corrupt/evicted entries,
  closed under transitive *callers*, since a caller's summary bakes in
  its callees' facts): the frozen region is replayed, only the dirty
  cone is re-solved (``sccs_resolved < scc_total``);
* **cold** — nothing usable (or no cache): whole-program solve, then
  populate the store.

Partial context-insensitive solving works by *suppress-and-validate*:
the engine subclass pre-installs the frozen masks and replays the
frozen call edges, then overrides the single propagation funnel
(``flow_out_mask``) to swallow any push targeting a frozen graph's
output into an ``arrived`` ledger instead of propagating it.  Frozen
handlers therefore never run.  After the dirty fixpoint, two checks
certify the composition *exact* (equal to the whole-program solution,
not merely sound):

* **growth** — everything that arrived at a frozen output is already
  contained in its replayed mask (the frozen region is a post-fixpoint
  of the *new* program);
* **coverage** — every bit of a replayed frozen entry mask (formals +
  store formal, the only cross-graph inputs) is justified by this
  run's arrivals or by a replayed frozen caller's actuals (no stale
  fact survives from a deleted call site).

Any check failure — or any unexpected exception, e.g. an edit that
renumbered heap/string locations out from under a frozen mask — falls
back to a cold whole-program solve, so the incremental path can never
change results, only running time.  The fuzz oracle's summary leg and
the differential harness hold it to digest equality.

Context-sensitive and flow-insensitive flavors are replay-or-cold:
CS qualified pairs are not summary-encodable (assumption sets name
caller contexts) and FI's single global store makes "partial" the
whole program anyway; both replay for free when nothing changed, which
is the common serve-mode case.  Replayed CS results carry
``extras["ci_result"]`` (the checkers' witness route) but no
``extras["qualified"]``; replayed FI results omit
``extras["global_store_pairs"]``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError
from ..ir.graph import FunctionGraph, Program
from ..ir.nodes import CallNode, OutputPort
from ..lru import evict_lru_files, touch
from ..memory.facttable import FactTable
from ..frontend.cache import caching_disabled, resolve_cache_dir
from .common import AnalysisResult, CallGraph, Counters, PointsToSolution
from .insensitive import InsensitiveAnalysis, analyze_insensitive
from .sensitive import analyze_sensitive
from .flowinsensitive import analyze_flowinsensitive
from .summaries import (
    SUMMARY_VERSION,
    Condensation,
    LocationCodec,
    Summary,
    apply_summary,
    body_hashes,
    call_condensation,
    context_hash,
    extract_summary,
    program_key,
    scc_keys,
)

#: Flavor order mirrors the runner: CI first (CS composes over it).
FLAVORS = ("insensitive", "sensitive", "flowinsensitive")


class SummaryReplayError(AnalysisError):
    """A replay/validation failure — callers fall back to cold."""


# -- the on-disk store ------------------------------------------------------


#: Disk budget for ``<cache_dir>/summaries/`` in MiB; unset or
#: non-positive leaves the store unbounded (the pre-GC behavior).
SUMMARY_CACHE_MB_ENV = "REPRO_SUMMARY_CACHE_MB"


def _default_store_budget() -> Optional[int]:
    raw = os.environ.get(SUMMARY_CACHE_MB_ENV, "")
    try:
        budget_mb = int(raw)
    except ValueError:
        return None
    return budget_mb * 1024 * 1024 if budget_mb > 0 else None


class SummaryStore:
    """``<cache_dir>/summaries/``: one pickle per (flavor, SCC key),
    plus a per-program manifest of observed dynamic call edges.

    Same durability idioms as the lowering cache: atomic publish via
    ``mkstemp`` + ``os.replace``, and any unreadable entry is unlinked
    and treated as a miss (the driver then re-solves its caller cone).
    Entries are immutable — the key *is* the content hash — so a store
    whose target file already exists is skipped, which also makes
    concurrent writers race-free.

    ``max_bytes`` (default: ``$REPRO_SUMMARY_CACHE_MB``, unbounded
    when unset) caps the directory under the same LRU rule the serve
    daemon applies to its in-memory tiers (:mod:`repro.lru`): loads
    bump entry recency, writes trigger :meth:`gc`, and the oldest
    entries go first.  Evicting an entry can only turn a future load
    into a re-solve — the exact degradation path corruption already
    exercises — so a bounded store is always safe, never wrong.
    """

    def __init__(self, cache_dir: Path,
                 max_bytes: Optional[int] = None) -> None:
        self.root = Path(cache_dir) / "summaries"
        self.max_bytes = (max_bytes if max_bytes is not None
                          else _default_store_budget())
        #: Entries deleted by :meth:`gc` over this store's lifetime.
        self.evictions = 0

    # -- paths -------------------------------------------------------------

    def entry_path(self, flavor: str, key: str) -> Path:
        return self.root / f"{flavor}-{key}.pkl"

    def manifest_path(self, key: str) -> Path:
        return self.root / f"manifest-{key}.pkl"

    # -- load --------------------------------------------------------------

    def _load_payload(self, path: Path) -> Optional[dict]:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated or corrupt — drop it so the next run misses
            # cleanly instead of failing the same way forever.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(payload, dict) or \
                payload.get("version") != SUMMARY_VERSION:
            return None
        touch(path)  # LRU recency: hot entries outlive the GC
        return payload

    def load_entry(self, flavor: str, key: str) -> Optional[Summary]:
        payload = self._load_payload(self.entry_path(flavor, key))
        if payload is None or payload.get("flavor") != flavor:
            return None
        try:
            return Summary.from_payload(payload)
        except Exception:
            return None

    def load_manifest(self, key: str) -> Optional[dict]:
        return self._load_payload(self.manifest_path(key))

    # -- store -------------------------------------------------------------

    def _write_payload(self, path: Path, payload: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=5)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store_entry(self, flavor: str, key: str, summary: Summary) -> bool:
        path = self.entry_path(flavor, key)
        if path.exists():
            return False
        self._write_payload(path, summary.as_payload())
        return True

    def store_manifest(self, key: str, payload: dict) -> None:
        self._write_payload(self.manifest_path(key), payload)
        self.gc()

    # -- eviction ----------------------------------------------------------

    def gc(self) -> int:
        """Evict least-recently-used entries until the store fits its
        byte budget; returns (and counts) the number evicted.  Called
        after each manifest publish — the write that ends every
        store-refreshing run — so growth is reclaimed promptly without
        paying a directory walk per entry."""
        if self.max_bytes is None:
            return 0
        removed = evict_lru_files(self.root, self.max_bytes)
        self.evictions += removed
        return removed


def manifest_key(program: Program) -> str:
    """Manifest address: program name + hazard-model variant + defined
    function set.  Coarse on purpose — the manifest only *suggests*
    dynamic call edges for condensation; per-SCC entries carry the
    edges replay actually trusts."""
    hazard = program.extras.get("hazard") or {}
    text = "|".join([str(SUMMARY_VERSION), program.name,
                     ",".join(sorted(hazard)),
                     ",".join(sorted(program.functions))])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- partial context-insensitive solving ------------------------------------


class IncrementalInsensitiveAnalysis(InsensitiveAnalysis):
    """CI engine that re-solves only the dirty call-graph cone.

    Construct, replay the frozen summaries into ``.solution`` /
    ``.callgraph`` (:func:`summaries.apply_summary`), then ``run()``.
    Always ``batched``: the suppression override below hooks the dense
    engine's ``flow_out_mask``.
    """

    def __init__(self, program: Program,
                 frozen_graphs: Iterable[FunctionGraph]) -> None:
        super().__init__(program, schedule="batched")
        self._frozen_graphs: Set[FunctionGraph] = set(frozen_graphs)
        #: Masks pushed at frozen outputs this run (seeds, dirty-caller
        #: actuals); the validation checks work over this ledger.
        self.arrived: Dict[OutputPort, int] = {}

    def flow_out_mask(self, output: OutputPort, mask: int) -> None:
        if output.node.graph in self._frozen_graphs:
            # The frozen region is converged state, not a propagation
            # target: record the push for validation and stop — its
            # handlers must never run against replayed masks.
            if mask:
                self.arrived[output] = self.arrived.get(output, 0) | mask
            return
        InsensitiveAnalysis.flow_out_mask(self, output, mask)

    # -- exactness certification -------------------------------------------

    def check_partition(self) -> None:
        """Reject replayed frozen→dirty call edges, **before** solving.

        The suppression scheme relies on frozen call sites never
        invoking dirty procedures: frozen handlers don't run, so a
        dirty callee of a frozen call would never receive that caller's
        actuals and its re-solve would be under-seeded — an error the
        post-fixpoint checks cannot see.  The condensation's
        caller-closure makes this impossible for edges it knows about;
        a stale entry can still carry a dynamic edge the condensation
        missed, which this check turns into a cold fallback.
        """
        for graph in self._frozen_graphs:
            for node in graph.nodes:
                if not isinstance(node, CallNode):
                    continue
                for callee in self.callgraph.callees(node):
                    if callee not in self._frozen_graphs:
                        raise SummaryReplayError(
                            f"frozen {graph.name} calls dirty "
                            f"{callee.name}")

    def validate(self) -> None:
        """Raise :class:`SummaryReplayError` unless the composed
        solution provably equals the whole-program solution.

        Every cross-graph dataflow equation touching the frozen region
        is checked in **both** directions (the only cross-graph flows
        are call→formal/store-formal and return→out/ostore; port
        consumer edges are strictly intra-graph):

        * *growth*: everything pushed at a frozen output this run is
          contained in its replayed mask;
        * *closure*: a replayed frozen caller's actuals are contained
          in its callee's formal masks, and replayed callee returns in
          the caller's call outputs — so the composition is a
          post-fixpoint and therefore a superset of the true solution;
        * *coverage*: every replayed mask at a frozen cross-graph
          input is justified by this run's arrivals or by a replayed
          frozen peer — no fact survives from a call site or return
          that no longer exists, so the composition is also a subset.

        Intra-graph equations need no checking: a key match means the
        body is isomorphic to the one the summary was extracted from,
        and the stored facts are a fixpoint of those equations given
        the (just-validated) masks at the graph's entry outputs.
        """
        solution = self.solution
        arrived = self.arrived
        for output, mask in arrived.items():
            if mask & ~solution.mask(output):
                raise SummaryReplayError(
                    f"frozen output {output!r} grew under re-analysis")
        justified: Dict[OutputPort, int] = {}
        for graph in self._frozen_graphs:
            for call in self.callgraph.callers(graph):
                if call.graph not in self._frozen_graphs:
                    continue  # dirty callers pushed through `arrived`
                for index, arg in enumerate(call.args):
                    formal = graph.corresponding_formal(index)
                    if formal is not None:
                        justified[formal] = \
                            justified.get(formal, 0) | self._mask(arg)
                store = graph.store_formal
                justified[store] = \
                    justified.get(store, 0) | self._mask(call.store)
        for graph in self._frozen_graphs:
            for output in list(graph.formals) + [graph.store_formal]:
                have = solution.mask(output)
                if justified.get(output, 0) & ~have:
                    raise SummaryReplayError(
                        f"replayed call site would grow frozen formal "
                        f"{output!r}")
                stale = have & ~(arrived.get(output, 0)
                                 | justified.get(output, 0))
                if stale:
                    raise SummaryReplayError(
                        f"frozen input {output!r} holds facts no live "
                        f"call site justifies")
        for graph in self._frozen_graphs:
            for node in graph.nodes:
                if not isinstance(node, CallNode):
                    continue
                returned = stored = 0
                for callee in self.callgraph.callees(node):
                    ret = callee.return_node
                    if ret is None:
                        continue
                    if ret.value is not None:
                        returned |= self._mask(ret.value)
                    stored |= self._mask(ret.store)
                for output, incoming in ((node.out, returned),
                                         (node.ostore, stored)):
                    have = solution.mask(output)
                    if incoming & ~have:
                        raise SummaryReplayError(
                            f"replayed return would grow frozen call "
                            f"output {output!r}")
                    if have & ~(arrived.get(output, 0) | incoming):
                        raise SummaryReplayError(
                            f"frozen call output {output!r} holds "
                            f"facts no live return justifies")


# -- the driver -------------------------------------------------------------


def _incremental_counters(extras: dict, *, resolved: int, reused: int,
                          hits: int, total: int) -> None:
    dense = extras.setdefault("dense", {})
    dense["sccs_resolved"] = resolved
    dense["summaries_reused"] = reused
    dense["summary_cache_hits"] = hits
    dense["summary_scc_total"] = total


def _replay_dense(table: FactTable, solution: PointsToSolution) -> dict:
    return {"fact_ids": table.pair_count(),
            "bitset_words": solution.bitset_words(),
            "kernel_calls": 0, "decode_calls": 0}


def _dirty_partition(cond: Condensation, loaded: Dict[int, Summary]
                     ) -> Tuple[Set[int], Set[int]]:
    """(dirty, frozen) component sets.  Dirtiness is closed under
    transitive callers: a caller's stored entry was extracted against
    its old callees' facts, so a loadable caller above a dirty callee
    must still be re-solved.  (Body edits already re-key the caller
    cone via the content keys; the closure matters for corruption and
    eviction, where keys still match but an entry is gone.)"""
    missing = [i for i in range(len(cond.sccs)) if i not in loaded]
    dirty = cond.caller_closure(missing)
    frozen = set(range(len(cond.sccs))) - dirty
    return dirty, frozen


def _replay_result(program: Program, flavor: str, codec: LocationCodec,
                   summaries: Iterable[Summary],
                   callgraph: Optional[CallGraph] = None,
                   extra_extras: Optional[dict] = None) -> AnalysisResult:
    started = time.perf_counter()
    table = FactTable.for_program(program)
    solution = PointsToSolution(table)
    if callgraph is None:
        callgraph = CallGraph()
    for summary in summaries:
        apply_summary(summary, program, codec, solution, callgraph)
    elapsed = time.perf_counter() - started
    extras = {"phases": {"solve": elapsed},
              "dense": _replay_dense(table, solution)}
    if extra_extras:
        extras.update(extra_extras)
    return AnalysisResult(program=program, solution=solution,
                          callgraph=callgraph, counters=Counters(),
                          elapsed_seconds=elapsed, flavor=flavor,
                          extras=extras)


def _load_all(store: SummaryStore, flavor: str, keys: Sequence[str]
              ) -> Dict[int, Summary]:
    loaded: Dict[int, Summary] = {}
    for index, key in enumerate(keys):
        summary = store.load_entry(flavor, key)
        if summary is not None:
            loaded[index] = summary
    return loaded


def _solve_ci(program: Program, store: Optional[SummaryStore],
              cond: Condensation, keys: Sequence[str],
              codec: LocationCodec, schedule: str) -> AnalysisResult:
    """CI with replay/partial/cold selection and cold fallback.

    Replay is the ``dirty = ∅`` degenerate case of the partial engine:
    nothing is re-solved, but seeding and validation still run, so
    even an all-frozen composition is certified against the current
    program before it is returned (entries persisted by different
    store generations are individually key-valid but not guaranteed
    mutually consistent — validation is what makes their composition
    trustworthy without re-solving).
    """
    total = len(cond.sccs)

    def cold(hits: int) -> AnalysisResult:
        result = analyze_insensitive(program, schedule=schedule)
        _incremental_counters(result.extras, resolved=total, reused=0,
                              hits=hits, total=total)
        return result

    if store is None:
        return cold(0)
    loaded = _load_all(store, "insensitive", keys)
    dirty, frozen = _dirty_partition(cond, loaded)
    if not frozen:
        return cold(len(loaded))
    try:
        frozen_graphs = [program.functions[name]
                         for i in frozen for name in cond.sccs[i]]
        engine = IncrementalInsensitiveAnalysis(program, frozen_graphs)
        for i in sorted(frozen):
            apply_summary(loaded[i], program, codec,
                          engine.solution, engine.callgraph)
        engine.check_partition()
        result = engine.run()
        engine.validate()
    except Exception:
        # Validation failure or structural drift (renumbered heap
        # cells, vanished nodes).  The partial attempt touched only
        # run-local state — re-solving from scratch is always safe.
        return cold(len(loaded))
    _incremental_counters(result.extras, resolved=len(dirty),
                          reused=len(frozen), hits=len(loaded),
                          total=total)
    return result


def _solve_replay_or_cold(program: Program, flavor: str,
                          store: Optional[SummaryStore], pkey: str,
                          total: int, codec: LocationCodec,
                          schedule: str,
                          ci_result: Optional[AnalysisResult]
                          ) -> AnalysisResult:
    """CS/FI: whole-program replay or cold — partial is CI-only.

    These flavors persist one entry under the whole-program key
    (module docstring: their facts are not caller-independent, so
    per-SCC keys cannot scope their validity).  A key match means no
    body changed since a complete solve was extracted, which makes the
    replay exact with no further validation.
    """
    hits = 0
    if store is not None:
        loaded = store.load_entry(flavor, pkey)
        if loaded is not None:
            hits = 1
            try:
                if flavor == "sensitive":
                    assert ci_result is not None
                    result = _replay_result(
                        program, flavor, codec, [loaded],
                        callgraph=ci_result.callgraph,
                        extra_extras={"ci_result": ci_result})
                else:
                    result = _replay_result(program, flavor, codec,
                                            [loaded])
            except Exception:
                result = None
            if result is not None:
                _incremental_counters(result.extras, resolved=0,
                                      reused=total, hits=hits,
                                      total=total)
                return result
    if flavor == "sensitive":
        result = analyze_sensitive(program, ci_result=ci_result,
                                   schedule=schedule)
    else:
        result = analyze_flowinsensitive(program, schedule=schedule)
    _incremental_counters(result.extras, resolved=total, reused=0,
                          hits=hits, total=total)
    return result


def _observed_edges(result: AnalysisResult) -> List[Tuple[str, str]]:
    return sorted({(call.graph.name, callee.name)
                   for call, callee in result.callgraph.edges()})


def _store_results(program: Program, store: SummaryStore,
                   codec: LocationCodec, ctx: str,
                   bodies: Dict[str, str],
                   results: Dict[str, AnalysisResult]) -> None:
    """Persist every analyzed flavor under the *converged* partition.

    The replay-time condensation only knows previously manifested
    dynamic edges; solving may have discovered more (or fewer).  The
    CI keys are therefore recomputed against the freshly observed
    edges before writing, so the second run over an unchanged program
    replays directly instead of needing another round to converge.
    Existing entry files are content-immutable and skipped.  CS/FI
    persist one whole-program entry each (their facts are not per-SCC
    compositional); the manifest records the observed dynamic edges
    per flavor for the next run's condensation.
    """
    edges = {flavor: _observed_edges(result)
             for flavor, result in results.items()}
    ci_result = results.get("insensitive")
    if ci_result is not None:
        union: Set[Tuple[str, str]] = set()
        for flavor_edges in edges.values():
            union.update(flavor_edges)
        cond = call_condensation(program, union)
        keys = scc_keys(program, cond, codec, ctx, bodies)
        for index, members in enumerate(cond.sccs):
            if store.entry_path("insensitive", keys[index]).exists():
                continue
            store.store_entry("insensitive", keys[index],
                              extract_summary(ci_result, members, codec))
    pkey = program_key(ctx, bodies)
    for flavor in ("sensitive", "flowinsensitive"):
        result = results.get(flavor)
        if result is None or store.entry_path(flavor, pkey).exists():
            continue
        store.store_entry(flavor, pkey,
                          extract_summary(result, sorted(program.functions),
                                          codec))
    store.store_manifest(manifest_key(program),
                         {"version": SUMMARY_VERSION, "edges": edges})


def analyze_incremental(program: Program,
                        flavors: Sequence[str] = FLAVORS, *,
                        cache: object = True,
                        schedule: str = "batched",
                        store_max_bytes: Optional[int] = None
                        ) -> Dict[str, AnalysisResult]:
    """Analyze ``program`` for ``flavors``, reusing and refreshing the
    persisted summary store under the lowering cache directory.

    Degrades to plain whole-program analysis when caching is disabled
    (``cache=False`` / ``REPRO_NO_CACHE``), and on *any* replay or
    validation failure — the summaries can change how much work a run
    does, never what it computes.  Results carry the incremental
    counters in ``extras["dense"]``: ``sccs_resolved``,
    ``summaries_reused``, ``summary_cache_hits``,
    ``summary_scc_total``, and — when the store is byte-capped via
    ``store_max_bytes`` or ``REPRO_SUMMARY_CACHE_MB`` — the number of
    entries its GC evicted this run (``summary_evictions``).
    """
    unknown = [f for f in flavors if f not in FLAVORS]
    if unknown:
        raise AnalysisError(f"unknown flavors {unknown!r}")
    cache_dir = None if caching_disabled() else resolve_cache_dir(cache)
    store = (SummaryStore(cache_dir, max_bytes=store_max_bytes)
             if cache_dir is not None else None)

    codec = LocationCodec(program)
    ctx = context_hash(program, codec)
    bodies = body_hashes(program, codec)
    pkey = program_key(ctx, bodies)
    manifest = (store.load_manifest(manifest_key(program))
                if store is not None else None)
    prior_edges: Set[Tuple[str, str]] = set()
    if manifest:
        for flavor_edges in (manifest.get("edges") or {}).values():
            prior_edges.update(tuple(edge) for edge in flavor_edges)
    cond = call_condensation(program, prior_edges)
    keys = scc_keys(program, cond, codec, ctx, bodies)

    want = list(flavors)
    need_ci = "insensitive" in want or "sensitive" in want
    results: Dict[str, AnalysisResult] = {}
    ci_result: Optional[AnalysisResult] = None
    if need_ci:
        ci_result = _solve_ci(program, store, cond, keys, codec, schedule)
        if "insensitive" in want:
            results["insensitive"] = ci_result
    for flavor in ("sensitive", "flowinsensitive"):
        if flavor not in want:
            continue
        results[flavor] = _solve_replay_or_cold(
            program, flavor, store, pkey, len(cond.sccs), codec,
            schedule, ci_result)
    if store is not None:
        try:
            to_store = dict(results)
            if ci_result is not None:
                to_store.setdefault("insensitive", ci_result)
            _store_results(program, store, codec, ctx, bodies, to_store)
        except OSError:
            pass  # a read-only or full cache never fails the analysis
        for result in results.values():
            dense = result.extras.setdefault("dense", {})
            dense["summary_evictions"] = store.evictions
    return {flavor: results[flavor] for flavor in want}
