"""Deliberately broken transfer rules, as named context managers.

These exist to prove the oracles have teeth.  Each mutation is a
reversible monkey-patch installing one plausible analysis bug:

* ``overeager-strong-updates`` — every based access path reports
  itself strongly updateable, so updates through array elements, heap
  summaries, and recursive locals *kill* store pairs that other
  instances still hold.  Crucially, this patches the
  :class:`AccessPath` property that the CI/CS/FI solvers **and**
  :mod:`repro.analysis.verify` all consult — every analysis is wrong
  the same way, the solution is still a self-consistent fixpoint, and
  only the concrete-execution oracle can notice (a real execution
  reads a value the analyses swear was overwritten).  This is exactly
  the bug class the fixpoint verifier is documented not to catch.

* ``drop-alias-deps`` — the dependence-graph builder's alias test is
  narrowed to path *identity*, so a store reaches a load only when the
  written path and the load's footprint path are the same interned
  object.  Aggregate copies feeding later field reads, and any
  prefix/summary-aliased def→use pair, silently lose their ``mem``
  edges.  Solutions, checkers, and the fixpoint verifier are all
  untouched — only the slice oracle's concrete def→use flows (and the
  cross-schedule graph digest, which still agrees) can notice, which
  is exactly the tooth it exists to prove.

* ``cs-survive-dom`` — the context-sensitive survive rule tests plain
  ``dom`` instead of ``strong_dom`` (per fact, and in the lane's kill
  mask), so a may-alias location pair is treated as a must-overwrite
  and qualified store pairs vanish from update outputs.  The CI result is untouched, which makes this the
  regression target for :func:`repro.analysis.verify.verify_qualified`:
  the qualified-pair fixpoint check must flag the missing facts.

Interned paths/pairs are process-global, but both patches replace pure
*behaviour* (a property, a bound method), not cached data, so entering
and exiting the context is side-effect free.

A second registry, :data:`SOURCE_MUTATIONS`, mutates the *program*
instead of the analysis: ``drop-null-init`` removes a pointer
initializer so the concrete interpreter hits a genuine uninitialized
pointer read — the self-test for the checker oracle, which must see
the ``uninit`` checker cover that concrete hazard on every mutated
seed.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from ..analysis.sensitive import SensitiveAnalysis
from ..memory.access import AccessPath
from ..memory.relations import dom
from ..analysis.qualified import QualifiedPair


@contextmanager
def overeager_strong_updates():
    """Every based path claims ``strongly_updateable`` (unsound kills)."""
    original = AccessPath.strongly_updateable
    AccessPath.strongly_updateable = property(
        lambda self: self.base is not None)
    try:
        yield
    finally:
        AccessPath.strongly_updateable = original


@contextmanager
def drop_alias_deps():
    """Dependence edges only for *identical* written/footprint paths.

    Patches the module-level :data:`repro.analysis.depgraph.MAY_ALIAS`
    binding — access paths are interned, so the identity test keeps
    exact-path edges (the mutation stays plausible) while every
    prefix-, dom-, or summary-aliased dependence disappears.
    """
    from ..analysis import depgraph

    original = depgraph.MAY_ALIAS
    depgraph.MAY_ALIAS = lambda a, b: a is b
    try:
        yield
    finally:
        depgraph.MAY_ALIAS = original


@contextmanager
def cs_survive_dom():
    """CS survive rule uses may-alias ``dom`` as if it were must-alias."""
    original = SensitiveAnalysis._update_survive
    original_lane = SensitiveAnalysis._lane_killed

    def broken(self, node, lp, sp):
        if self.prune.cannot_modify(node, sp.pair.path):
            self.flow_out(node.ostore, sp)
            return
        if dom(lp.pair.referent, sp.pair.path):   # should be strong_dom
            return
        a_l = self._loc_assumptions(node, lp.assumptions)
        self.flow_out(node.ostore,
                      QualifiedPair(sp.pair, a_l | sp.assumptions))

    def broken_lane(self, r_l, mask):
        same_base = mask & self.table.base_mask(r_l.base)
        if not same_base or not r_l.ops:   # no strongly_updateable test
            return same_base
        return self.table.kill_mask(r_l, same_base)

    SensitiveAnalysis._update_survive = broken
    SensitiveAnalysis._lane_killed = broken_lane
    try:
        yield
    finally:
        SensitiveAnalysis._update_survive = original
        SensitiveAnalysis._lane_killed = original_lane


#: Name → context-manager factory, for ``repro fuzz --mutate``.
MUTATIONS = {
    "overeager-strong-updates": overeager_strong_updates,
    "drop-alias-deps": drop_alias_deps,
    "cs-survive-dom": cs_survive_dom,
}


# -- source mutations -------------------------------------------------------

#: A scalar pointer declaration with an initializer, as the generator
#: emits them (``int *v3 = &g0;``, ``int **v7 = &v3;``,
#: ``struct S0 *v4 = &v1;``) — pointer arrays (``int *v5[2] = ...``)
#: deliberately do not match.
_PTR_INIT = re.compile(
    r"^(?P<indent>\s*)(?P<type>int\s*\*{1,2}|struct\s+\w+\s*\*)\s*"
    r"(?P<name>\w+)\s*=\s*[^;]+;\s*$")


def drop_null_init_candidates(source: str
                              ) -> Iterator[Tuple[str, str]]:
    """Every single-init-removal mutant of ``source``.

    Yields ``(dropped variable, mutated source)`` with exactly one
    pointer declaration's initializer removed, leaving the variable
    genuinely uninitialized; line numbering is preserved so source
    coordinates in the original and the mutant agree.
    """
    lines = source.splitlines()
    for index, line in enumerate(lines):
        match = _PTR_INIT.match(line)
        if match is None:
            continue
        indent, ctype, name = match.group("indent", "type", "name")
        mutated = list(lines)
        mutated[index] = f"{indent}{ctype}{name};"
        yield name, "\n".join(mutated) + "\n"


def apply_drop_null_init(source: str) -> Optional[str]:
    """Pick a mutant whose execution provably reads the dropped
    pointer through a dereference.

    Runs each candidate concretely and keeps the first whose trap is
    an uninitialized read *of the dropped variable* at a line that
    dereferences it (``*v``, ``v->``, ``v[``) — i.e. a line the
    lowering gives a memory operation, so the ``uninit`` checker has a
    node to report.  A read that is a plain pointer copy traps
    concretely but has no memory operation (copies are sparse SSA
    edges), so those candidates are skipped.  Returns ``None`` when no
    candidate qualifies; the driver skips such seeds.
    """
    from .concrete import ConcreteTrap, interpret_source

    for name, mutated in drop_null_init_candidates(source):
        try:
            interpret_source(mutated, name="<mutant>")
        except ConcreteTrap as trap:
            message = str(trap)
            if not message.startswith(f"uninitialized read of '{name}"):
                continue
            if trap.line is None:
                continue
            text = mutated.splitlines()[trap.line - 1]
            if (f"*{name}" in text or f"{name}->" in text
                    or f"{name}[" in text):
                return mutated
    return None


#: Name → ``source -> mutated source | None``, for ``repro fuzz
#: --mutate``.  Unlike :data:`MUTATIONS` these break the *program*,
#: not the analysis: the oracle is expected to observe the injected
#: hazard (``expect_trap``), and a checker that misses it is the bug.
SOURCE_MUTATIONS = {
    "drop-null-init": apply_drop_null_init,
}
