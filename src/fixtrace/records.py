"""Fixed-point records and the geometric Reidemeister trace.

A map document may list its isolated fixed points, each with a local
index and a witness for its path class; the geometric route sums the
index-weighted twisted classes of the witnesses, and ``cli`` compares
that sum with the chain-level trace of ``reidemeister``.  Only a
``reidemeister`` command whose document has records loads this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .documents import InputError, json_integer, json_sign
from .grouprings import GroupEndomorphism, ShadowElement, shadow_sum


class FixedPointRecord:
    """An isolated fixed point: local index plus a path class witness.

    The witness is the group element of the path from the basepoint
    whiskering of the fixed point's path to its image, i.e. the twisted
    class datum of the fixed point.
    """

    __slots__ = ("index", "class_witness")

    def __init__(self, index: int, class_witness):
        self.index = index
        self.class_witness = class_witness


def parse_fixed_point_records(raw: Optional[List[Dict]], group
                              ) -> Optional[List[FixedPointRecord]]:
    """The records ``documents.parse_map`` read, or None if it read none,
    with each witness read over ``group`` by ``parse_witness``."""
    if raw is None:
        return None
    return [FixedPointRecord(r["index"], parse_witness(r["witness"], group))
            for r in raw]


def parse_witness(raw: List, group):
    """The group element a witness list names, checked entry by entry
    before it is built: over Z^n exactly n integers, over F_k letters
    ``[generator, exponent]`` with an integer generator in [0, k) and an
    exponent of 1 or -1, freely reduced."""
    n = group.rank
    if group.kind == "free_abelian":
        if len(raw) != n:
            raise InputError(f"fixed point witness over Z^{n} must have {n} "
                             f"entries, got {len(raw)}")
        return tuple(json_integer(x, "fixed point witness entry")
                     for x in raw)
    letters = []
    for letter in raw:
        if not (isinstance(letter, list) and len(letter) == 2):
            raise InputError("fixed point witness letters must be "
                             "two-element lists")
        g, e = letter
        if not 0 <= json_integer(g, "fixed point witness generator") < n:
            raise InputError(f"fixed point witness generator must lie in "
                             f"[0, {n}), got {g}")
        letters.append((g, json_sign(e, "fixed point witness exponent")))
    return group.element(letters)


def reidemeister_trace_geometric(records: Sequence[FixedPointRecord], group,
                                 endo: GroupEndomorphism,
                                 depth: int) -> ShadowElement:
    """Sum of index-weighted twisted classes of the fixed-point witnesses."""
    return shadow_sum(group, endo,
                      [(r.class_witness, r.index) for r in records], depth)
