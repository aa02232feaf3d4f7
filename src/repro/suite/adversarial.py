"""Generated programs where context-sensitivity *does* win.

Section 5 of the paper: "it is easy to construct programs where
context-sensitivity provides an arbitrarily large benefit."  These
generators build exactly such programs, parameterized by size, so the
benchmark harness can show the inverse result — CI imprecision growing
linearly while CS stays exact — demonstrating that the reproduction's
equal-precision finding on the suite is a property of the programs, not
a blindness of the harness.
"""

from __future__ import annotations

from io import StringIO
from typing import TYPE_CHECKING

from ..frontend.pipeline import lower_source

if TYPE_CHECKING:
    from ..ir.graph import Program


def cs_wins_source(n_sites: int) -> str:
    """A program with one identity function called from ``n_sites``
    call sites, each passing (and then dereferencing) the address of a
    distinct global.

    Context-insensitive analysis merges all actuals at ``id``'s formal,
    so every dereference sees all ``n_sites`` globals; the
    context-sensitive analysis keeps each site exact (1 location).
    """
    if n_sites < 1:
        raise ValueError("need at least one call site")
    out = StringIO()
    out.write("/* generated: context-sensitivity wins, N = %d */\n"
              % n_sites)
    for i in range(n_sites):
        out.write(f"int g{i};\n")
    out.write("\nint *id(int *p) { return p; }\n\n")
    out.write("int main(void) {\n")
    out.write("    int total = 0;\n")
    for i in range(n_sites):
        out.write(f"    int *p{i} = id(&g{i});\n")
        out.write(f"    *p{i} = {i};\n")
        out.write(f"    total = total + *p{i};\n")
    out.write("    return total;\n}\n")
    return out.getvalue()


def deep_chain_source(depth: int) -> str:
    """A chain of ``depth`` wrappers around the identity function, with
    two roots passing distinct globals.

    Each wrapper level is another opportunity for a context-insensitive
    analysis to conflate the two flows; a context-sensitive analysis
    tracks them separately through the whole chain.
    """
    if depth < 1:
        raise ValueError("need at least one wrapper level")
    out = StringIO()
    out.write("/* generated: %d-deep wrapper chain */\n" % depth)
    out.write("int ga, gb;\n\n")
    out.write("int *w0(int *p) { return p; }\n")
    for i in range(1, depth + 1):
        out.write(f"int *w{i}(int *p) {{ return w{i - 1}(p); }}\n")
    out.write("\nint main(void) {\n")
    out.write(f"    int *pa = w{depth}(&ga);\n")
    out.write(f"    int *pb = w{depth}(&gb);\n")
    out.write("    *pa = 1;\n")
    out.write("    *pb = 2;\n")
    out.write("    return *pa + *pb;\n}\n")
    return out.getvalue()


def swap_cells_source(n_pairs: int) -> str:
    """``n_pairs`` disjoint pointer cells updated through one shared
    store routine — context-insensitive analysis cross-pollinates the
    cells' contents, context-sensitive analysis keeps each cell exact.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    out = StringIO()
    out.write("/* generated: %d cells through one store routine */\n"
              % n_pairs)
    for i in range(n_pairs):
        out.write(f"int v{i};\nint *cell{i};\n")
    out.write("\nvoid put(int **cell, int *value) { *cell = value; }\n\n")
    out.write("int main(void) {\n")
    for i in range(n_pairs):
        out.write(f"    put(&cell{i}, &v{i});\n")
    for i in range(n_pairs):
        out.write(f"    *cell{i} = {i};\n")
    out.write("    return v0;\n}\n")
    return out.getvalue()


def assumption_chain_source(chain_length: int, n_sites: int = 3) -> str:
    """A callee with a chain of ``chain_length`` strong updates through
    pointer formals, called from ``n_sites`` sites with distinct
    globals, while an unrelated store pair must survive the chain.

    This is §4.1's combinatorial explosion made concrete: a surviving
    store pair must be qualified by one assumption per non-overwriting
    location ("we must enumerate all of the ways in which the input
    pair could fail to be overwritten.  A chain of such update nodes
    quickly yields a large combinatorial explosion").  Both analyses
    compute the same answer at every dereference; only the cost
    differs — and §4.2's CI-based prunings collapse it, which is the
    speedup the paper could not measure ("the unoptimized algorithm
    could only be applied to very small examples").
    """
    if chain_length < 1:
        raise ValueError("need at least one update in the chain")
    if not 1 <= n_sites <= 26:
        raise ValueError("n_sites must be between 1 and 26")
    out = StringIO()
    out.write("/* generated: %d-deep strong-update chain, %d sites */\n"
              % (chain_length, n_sites))
    out.write("int held_target;\nint *held;\n")
    suffixes = "abcdefghijklmnopqrstuvwxyz"[:n_sites]
    for i in range(chain_length):
        for s in suffixes:
            out.write(f"int t{i}_{s};\n")
    params = ", ".join(f"int *q{i}" for i in range(chain_length))
    out.write(f"\nvoid chain({params}) {{\n")
    for i in range(chain_length):
        out.write(f"    *q{i} = {i};\n")
    out.write("}\n\nint main(void) {\n")
    out.write("    held = &held_target;\n")
    for s in suffixes:
        args = ", ".join(f"&t{i}_{s}" for i in range(chain_length))
        out.write(f"    chain({args});\n")
    out.write("    return *held;\n}\n")
    return out.getvalue()


def copy_chain_source(n_pointers: int, n_targets: int) -> str:
    """A chain of ``n_pointers`` global pointer cells, the first
    assigned the addresses of ``n_targets`` globals (under branches),
    each subsequent cell copied from its predecessor, and every cell
    dereferenced.

    Points-to facts number ``n_pointers × n_targets``, making this the
    scaling workload for Section 3.1's complexity claim: O(n³) worst
    case, "O(n²) in the average case, in which each pointer has only a
    small constant number of referents".
    """
    if n_pointers < 1 or n_targets < 1:
        raise ValueError("need at least one pointer and one target")
    out = StringIO()
    out.write("/* generated: %d-cell copy chain, %d targets */\n"
              % (n_pointers, n_targets))
    for i in range(n_targets):
        out.write(f"int g{i};\n")
    for i in range(n_pointers):
        out.write(f"int *c{i};\n")
    out.write("\nint main(int argc, char **argv) {\n")
    out.write("    int selector = argc;\n")
    for i in range(n_targets):
        out.write(f"    if (selector == {i}) c0 = &g{i};\n")
    for i in range(1, n_pointers):
        out.write(f"    c{i} = c{i - 1};\n")
    out.write("    int total = 0;\n")
    for i in range(n_pointers):
        out.write(f"    if (c{i}) total = total + *c{i};\n")
    out.write("    return total;\n}\n")
    return out.getvalue()


def load_cs_wins(n_sites: int, **options) -> Program:
    return lower_source(cs_wins_source(n_sites),
                        name=f"cs_wins_{n_sites}", **options)


def load_deep_chain(depth: int, **options) -> Program:
    return lower_source(deep_chain_source(depth),
                        name=f"deep_chain_{depth}", **options)


def load_swap_cells(n_pairs: int, **options) -> Program:
    return lower_source(swap_cells_source(n_pairs),
                        name=f"swap_cells_{n_pairs}", **options)


def load_assumption_chain(chain_length: int, n_sites: int = 3,
                          **options) -> Program:
    return lower_source(assumption_chain_source(chain_length, n_sites),
                        name=f"assumption_chain_{chain_length}", **options)


def load_copy_chain(n_pointers: int, n_targets: int, **options) -> Program:
    return lower_source(copy_chain_source(n_pointers, n_targets),
                        name=f"copy_chain_{n_pointers}x{n_targets}",
                        **options)
