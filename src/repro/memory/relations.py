"""The paper's ``dom`` and ``strong-dom`` relations on access paths.

From the definitions box of Figure 1:

* ``A dom B``: a read (write) of ``A`` *may* observe (modify) a value
  written to ``B``.  In the path representation this holds iff ``A`` is
  a prefix of ``B``.

* ``A strong-dom B``: a read (write) of ``A`` *must* observe (modify) a
  value written to ``B``.  This holds iff ``A`` is strongly updateable
  (its base denotes a single storage location and none of its operators
  are array dereferences) and ``A`` is a prefix of ``B``.

Prefixing is the only aliasing the representation admits because access
operators are interned and union members collapse to one slot.
"""

from __future__ import annotations

from typing import Optional

from .access import AccessPath, make_path
from .facttable import FactTable, decode_ids


def is_prefix(a: AccessPath, b: AccessPath) -> bool:
    """Whether path ``a`` is a (non-strict) prefix of path ``b``."""
    if a.base is not b.base:
        return False
    n = len(a.ops)
    return len(b.ops) >= n and b.ops[:n] == a.ops


def dom(a: AccessPath, b: AccessPath) -> bool:
    """May-alias: a read/write of ``a`` may see a value written to ``b``."""
    return is_prefix(a, b)


def strong_dom(a: AccessPath, b: AccessPath) -> bool:
    """Must-alias: a write of ``a`` definitely overwrites ``b``'s value."""
    return a.strongly_updateable and is_prefix(a, b)


def may_alias(a: AccessPath, b: AccessPath) -> bool:
    """Symmetric may-alias: either path dominates the other."""
    return is_prefix(a, b) or is_prefix(b, a)


def meet(a: AccessPath, b: AccessPath) -> Optional[AccessPath]:
    """Greatest lower bound in the ``dom`` prefix order.

    With ``x ⊑ y`` defined as ``is_prefix(x, y)``, two paths over the
    same base always meet at their longest common prefix; paths over
    different bases share no lower bound at all (the order has no
    bottom), so the meet is ``None``.
    """
    if a.base is not b.base:
        return None
    n = 0
    for x, y in zip(a.ops, b.ops):
        if x != y:
            break
        n += 1
    return make_path(a.base, a.ops[:n])


# -- bitset-domain equivalents (dense-id fact engine) ----------------------
#
# The dense engine (see repro.memory.facttable) manipulates access
# paths through their table ids.  These mirrors keep the two
# representations verifiably in lockstep: each is defined by decoding,
# applying the object-level relation, and re-encoding, and the
# lattice-law property tests assert the id domain satisfies the same
# laws the object domain does.


def meet_ids(table: FactTable, a_id: int, b_id: int) -> Optional[int]:
    """GLB of two paths in the id domain: the id of ``meet(a, b)``,
    or ``None`` when the paths share no lower bound."""
    glb = meet(table.path_of(a_id), table.path_of(b_id))
    if glb is None:
        return None
    return table.path_id(glb)


def meet_mask(table: FactTable, a_mask: int, b_mask: int) -> int:
    """Pointwise meet of two path *sets* encoded as bitsets: the set
    of all defined ``meet(a, b)`` with ``a`` drawn from ``a_mask`` and
    ``b`` from ``b_mask``."""
    out = 0
    a_ids = decode_ids(a_mask)
    for b_id in decode_ids(b_mask):
        b_path = table.path_of(b_id)
        for a_id in a_ids:
            glb = meet(table.path_of(a_id), b_path)
            if glb is not None:
                out |= 1 << table.path_id(glb)
    return out
