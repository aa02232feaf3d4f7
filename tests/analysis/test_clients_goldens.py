"""Golden per-program counts for the analysis clients.

Pinned behaviour of defuse / modref / deadstore over all 13 suite
programs x 3 flavors, captured from the pre-refactor per-location
walk and required to survive the shared mask-level reaching-defs
engine (``analysis/depgraph.ReachingDefs``) unchanged.  The sweep
uses the whole-program (context-insensitive walk) configuration that
``find_dead_stores`` and the dependence-graph pass use; call-site
sensitivity is covered by the defuse unit tests.

Metrics per (program, flavor):

* ``reads`` / ``defuse_edges`` / ``initial_reads`` — lookup count,
  total reaching definitions over all lookups (INITIAL included),
  and how many lookups can observe the initial store;
* ``mod`` / ``ref`` — summed per-function transitive mod/ref set
  sizes;
* ``dead`` / ``unreachable`` / ``stores`` — the dead-store report.
"""

import pytest

from repro.analysis.clients.deadstore import find_dead_stores
from repro.analysis.clients.defuse import INITIAL, defuse
from repro.analysis.clients.modref import modref
from repro.ir.nodes import LookupNode
from repro.suite.registry import PROGRAM_NAMES

FLAVORS = ("insensitive", "sensitive", "flowinsensitive")

GOLDEN = {
    'allroots': {
        'insensitive': dict(reads=16, defuse_edges=63,
                     initial_reads=16,
                     mod=19, ref=31,
                     dead=0, unreachable=0, stores=12),
        'sensitive': dict(reads=16, defuse_edges=63,
                     initial_reads=16,
                     mod=19, ref=31,
                     dead=0, unreachable=0, stores=12),
        'flowinsensitive': dict(reads=16, defuse_edges=63,
                     initial_reads=16,
                     mod=19, ref=31,
                     dead=0, unreachable=0, stores=12),
    },
    'anagram': {
        'insensitive': dict(reads=28, defuse_edges=62,
                     initial_reads=21,
                     mod=23, ref=30,
                     dead=0, unreachable=0, stores=16),
        'sensitive': dict(reads=28, defuse_edges=62,
                     initial_reads=21,
                     mod=23, ref=30,
                     dead=0, unreachable=0, stores=16),
        'flowinsensitive': dict(reads=28, defuse_edges=62,
                     initial_reads=21,
                     mod=23, ref=30,
                     dead=0, unreachable=0, stores=16),
    },
    'assembler': {
        'insensitive': dict(reads=60, defuse_edges=163,
                     initial_reads=53,
                     mod=57, ref=83,
                     dead=0, unreachable=0, stores=31),
        'sensitive': dict(reads=60, defuse_edges=163,
                     initial_reads=53,
                     mod=57, ref=83,
                     dead=0, unreachable=0, stores=31),
        'flowinsensitive': dict(reads=60, defuse_edges=163,
                     initial_reads=53,
                     mod=57, ref=83,
                     dead=0, unreachable=0, stores=31),
    },
    'backprop': {
        'insensitive': dict(reads=22, defuse_edges=105,
                     initial_reads=22,
                     mod=10, ref=16,
                     dead=0, unreachable=0, stores=9),
        'sensitive': dict(reads=22, defuse_edges=105,
                     initial_reads=22,
                     mod=10, ref=16,
                     dead=0, unreachable=0, stores=9),
        'flowinsensitive': dict(reads=22, defuse_edges=105,
                     initial_reads=22,
                     mod=10, ref=16,
                     dead=0, unreachable=0, stores=9),
    },
    'bc': {
        'insensitive': dict(reads=34, defuse_edges=136,
                     initial_reads=26,
                     mod=62, ref=111,
                     dead=0, unreachable=0, stores=27),
        'sensitive': dict(reads=34, defuse_edges=136,
                     initial_reads=26,
                     mod=62, ref=111,
                     dead=0, unreachable=0, stores=27),
        'flowinsensitive': dict(reads=34, defuse_edges=136,
                     initial_reads=26,
                     mod=62, ref=111,
                     dead=0, unreachable=0, stores=27),
    },
    'compiler': {
        'insensitive': dict(reads=54, defuse_edges=160,
                     initial_reads=47,
                     mod=51, ref=48,
                     dead=0, unreachable=0, stores=21),
        'sensitive': dict(reads=54, defuse_edges=160,
                     initial_reads=47,
                     mod=51, ref=48,
                     dead=0, unreachable=0, stores=21),
        'flowinsensitive': dict(reads=54, defuse_edges=160,
                     initial_reads=47,
                     mod=51, ref=48,
                     dead=0, unreachable=0, stores=21),
    },
    'compress': {
        'insensitive': dict(reads=24, defuse_edges=64,
                     initial_reads=21,
                     mod=24, ref=25,
                     dead=0, unreachable=0, stores=19),
        'sensitive': dict(reads=24, defuse_edges=64,
                     initial_reads=21,
                     mod=24, ref=25,
                     dead=0, unreachable=0, stores=19),
        'flowinsensitive': dict(reads=24, defuse_edges=64,
                     initial_reads=21,
                     mod=24, ref=25,
                     dead=0, unreachable=0, stores=19),
    },
    'lex315': {
        'insensitive': dict(reads=16, defuse_edges=69,
                     initial_reads=14,
                     mod=10, ref=14,
                     dead=3, unreachable=0, stores=23),
        'sensitive': dict(reads=16, defuse_edges=69,
                     initial_reads=14,
                     mod=10, ref=14,
                     dead=3, unreachable=0, stores=23),
        'flowinsensitive': dict(reads=16, defuse_edges=69,
                     initial_reads=14,
                     mod=10, ref=14,
                     dead=3, unreachable=0, stores=23),
    },
    'loader': {
        'insensitive': dict(reads=35, defuse_edges=82,
                     initial_reads=30,
                     mod=64, ref=82,
                     dead=1, unreachable=0, stores=24),
        'sensitive': dict(reads=35, defuse_edges=82,
                     initial_reads=30,
                     mod=64, ref=82,
                     dead=1, unreachable=0, stores=24),
        'flowinsensitive': dict(reads=35, defuse_edges=82,
                     initial_reads=30,
                     mod=64, ref=82,
                     dead=1, unreachable=0, stores=24),
    },
    'part': {
        'insensitive': dict(reads=25, defuse_edges=79,
                     initial_reads=14,
                     mod=52, ref=49,
                     dead=1, unreachable=0, stores=18),
        'sensitive': dict(reads=25, defuse_edges=79,
                     initial_reads=14,
                     mod=52, ref=49,
                     dead=1, unreachable=0, stores=18),
        'flowinsensitive': dict(reads=25, defuse_edges=79,
                     initial_reads=14,
                     mod=52, ref=49,
                     dead=1, unreachable=0, stores=18),
    },
    'simulator': {
        'insensitive': dict(reads=40, defuse_edges=219,
                     initial_reads=26,
                     mod=47, ref=53,
                     dead=2, unreachable=0, stores=26),
        'sensitive': dict(reads=40, defuse_edges=219,
                     initial_reads=26,
                     mod=47, ref=53,
                     dead=2, unreachable=0, stores=26),
        'flowinsensitive': dict(reads=40, defuse_edges=219,
                     initial_reads=26,
                     mod=47, ref=53,
                     dead=2, unreachable=0, stores=26),
    },
    'span': {
        'insensitive': dict(reads=17, defuse_edges=51,
                     initial_reads=17,
                     mod=24, ref=17,
                     dead=0, unreachable=0, stores=11),
        'sensitive': dict(reads=17, defuse_edges=51,
                     initial_reads=17,
                     mod=24, ref=17,
                     dead=0, unreachable=0, stores=11),
        'flowinsensitive': dict(reads=17, defuse_edges=51,
                     initial_reads=17,
                     mod=24, ref=17,
                     dead=0, unreachable=0, stores=11),
    },
    'yacr2': {
        'insensitive': dict(reads=39, defuse_edges=85,
                     initial_reads=25,
                     mod=37, ref=49,
                     dead=0, unreachable=0, stores=22),
        'sensitive': dict(reads=39, defuse_edges=85,
                     initial_reads=25,
                     mod=37, ref=49,
                     dead=0, unreachable=0, stores=22),
        'flowinsensitive': dict(reads=39, defuse_edges=85,
                     initial_reads=25,
                     mod=37, ref=49,
                     dead=0, unreachable=0, stores=22),
    },
}


def client_counts(result):
    """The golden metrics for one solved result (shared with goldens
    regeneration -- keep in sync with the module docstring)."""
    program = result.program
    du = defuse(result, call_site_sensitive=False)
    reads = edges = initial = 0
    for graph in program.functions.values():
        for node in graph.nodes:
            if isinstance(node, LookupNode):
                reads += 1
                defs = du.reaching_definitions(node)
                edges += len(defs)
                if INITIAL in defs:
                    initial += 1
    info = modref(result)
    report = find_dead_stores(result)
    return dict(reads=reads, defuse_edges=edges, initial_reads=initial,
                mod=sum(len(info.mod_set(f)) for f in program.functions),
                ref=sum(len(info.ref_set(f)) for f in program.functions),
                dead=len(report.dead),
                unreachable=len(report.unreachable),
                stores=report.total)


class TestClientGoldens:
    def test_every_program_covered(self):
        assert set(GOLDEN) == set(PROGRAM_NAMES)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_counts(self, suite_cache, name, flavor):
        if flavor == "insensitive":
            result = suite_cache.ci(name)
        elif flavor == "sensitive":
            result = suite_cache.cs(name)
        else:
            from repro.analysis.flowinsensitive import \
                analyze_flowinsensitive
            result = analyze_flowinsensitive(suite_cache.program(name))
        assert client_counts(result) == GOLDEN[name][flavor], \
            f"{name}/{flavor}"

    def test_cs_at_most_ci(self):
        """Context sensitivity can only remove spurious dependence
        edges and mod/ref entries, never add them."""
        for name in PROGRAM_NAMES:
            ci = GOLDEN[name]["insensitive"]
            cs = GOLDEN[name]["sensitive"]
            for metric in ("defuse_edges", "mod", "ref"):
                assert cs[metric] <= ci[metric], (name, metric)
