"""One-vertex chain models of circle and torus maps, with their oracles.

These are independent oracles for the twisted trace: the chain models are
built by hand from Fox derivatives (the torus's degree-two component by
exact division in the Laurent ring), not by lifting a simplicial map, and
the fixed-point oracles count fixed points analytically (roots of unity on
the circle, lattice points on the torus).  Tests compare
``reidemeister_trace_chain`` and ``twisted_hs_trace``, the twisted
Hattori-Stallings trace of a square group-ring matrix, against them.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from fixtrace.exactalg import IntMatrix
from fixtrace.grouprings import (
    DEFAULT_DEPTH,
    FreeAbelianGroup,
    GroupEndomorphism,
    GroupError,
    GroupRingElement,
    GroupRingMatrix,
    ShadowElement,
    twisted_class,
)
from fixtrace.records import FixedPointRecord
from fixtrace.reidemeister import (
    EquivariantChainComplex,
    TwistedChainMap,
    degree1_boundary,
    fox_derivative,
    fox_matrix,
)
from tests.oracles import determinant, from_rows


def twisted_hs_trace(m: GroupRingMatrix, endo: GroupEndomorphism,
                     depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Project the diagonal of a square group-ring matrix to twisted classes."""
    if m.rows != m.cols:
        raise GroupError("trace of non-square matrix")
    terms = []
    for i in range(m.rows):
        a = m.entries.get((i, i))
        for g, c in a.terms.values() if a is not None else ():
            terms.append((twisted_class(m.group, endo, g, depth), c))
    return ShadowElement(m.group, endo, terms)


def unit_matrix(group) -> GroupRingMatrix:
    """The 1 x 1 group-ring matrix holding the group's identity."""
    return from_rows(
        group, [[GroupRingElement.of(group, group.identity())]])


def circle_degree_chain_model(d: int) -> TwistedChainMap:
    """Tree-contracted chain model of z -> z^d on the circle."""
    z = FreeAbelianGroup(1)
    endo = GroupEndomorphism(z, [(d,)])
    cover = EquivariantChainComplex(z, [1, 1], [degree1_boundary(z)])
    f0 = unit_matrix(z)
    word = ((0, 1),) * d if d >= 0 else ((0, -1),) * (-d)
    f1 = fox_matrix(z, z.identity(), [word])
    return TwistedChainMap(cover, endo, [f0, f1])


def rank1_witness(group, k: int):
    """Integer path-class witness in the element format of a rank-1 group."""
    if group.kind == "free_abelian":
        return (k,)
    return ((0, 1),) * k if k >= 0 else ((0, -1),) * (-k)


def materialize_records(records: Sequence[FixedPointRecord], group
                        ) -> List[FixedPointRecord]:
    """Convert integer witnesses into elements of the given rank-1 group."""
    return [FixedPointRecord(index=r.index,
                             class_witness=rank1_witness(group,
                                                         r.class_witness))
            for r in records]


def circle_degree_oracle(d: int) -> Dict:
    """Analytic fixed points of z -> z^d: solutions of z^(d-1) = 1.

    For d != 1 there are |d - 1| fixed points, each of local index
    sign(1 - d); the k-th fixed point exp(2 pi i k / (d-1)) has path-class
    witness k in Z/(1 - d).  Witnesses are stored as plain integers; use
    :func:`materialize_records` for a concrete group.
    """
    if d == 1:
        return {"lefschetz": 0, "nielsen": 0, "records": [],
                "note": "identity-degree map: empty trace"}
    count = abs(1 - d)
    sign = 1 if 1 - d > 0 else -1
    records = [FixedPointRecord(index=sign, class_witness=k)
               for k in range(count)]
    return {
        "lefschetz": 1 - d,
        "nielsen": count,
        "coefficient": sign,
        "class_count": count,
        "records": records,
        "note": "roots of z^(d-1) = 1; local index is the sign of 1 - d",
    }


# ---------------------------------------------------------------------------
# Torus linear maps (equivariant chain model and lattice oracle)
# ---------------------------------------------------------------------------

def _divide_one_minus(p: GroupRingElement, v: Tuple[int, ...]
                      ) -> GroupRingElement:
    """Exact division of a Z[Z^n] element by (1 - t^v).

    Each step cancels the remainder's term of greatest (v-degree, element)
    with one multiple of (1 - t^v), which moves its coefficient v lower.
    A heap keyed by the negated (v-degree, element) finds that term; keys
    of terms that have since cancelled are skipped.
    """
    group = p.group
    rem = {g: c for g, c in p.terms.values()}
    quot: Dict[Tuple[int, ...], int] = {}

    def key(g):
        return (-sum(x * y for x, y in zip(g, v)), tuple(-x for x in g))

    heap = [(key(g), g) for g in rem]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, g = heapq.heappop(heap)
        c = rem.pop(g, 0)
        if c == 0:
            continue
        steps += 1
        if steps > 10000:
            raise GroupError("division by (1 - t^v) does not terminate")
        gm = tuple(a - b for a, b in zip(g, v))
        # (1 - t^v) * (-c t^gm) = -c t^gm + c t^g
        quot[gm] = quot.get(gm, 0) - c
        if gm not in rem:
            heapq.heappush(heap, (key(gm), gm))
        rem[gm] = rem.get(gm, 0) + c
        if rem[gm] == 0:
            del rem[gm]
    return GroupRingElement(group, [(g, c) for g, c in quot.items()])


def torus_linear_chain_model(a: Sequence[Sequence[int]]) -> TwistedChainMap:
    """Chain model of the torus self-map induced by an integer matrix.

    The torus is given its one-vertex cell structure (one 2-cell attached
    along the commutator); the degree-two component of the lift is the
    unique solution of the twisted commutation equation, found by exact
    division in the Laurent ring.
    """
    (a00, a01), (a10, a11) = a
    z2 = FreeAbelianGroup(2)
    endo = GroupEndomorphism(z2, [(a00, a10), (a01, a11)])
    comm = ((0, 1), (1, 1), (0, -1), (1, -1))
    b1 = degree1_boundary(z2)
    b2 = GroupRingMatrix(z2, 1, 2, {
        (0, j): d for j, d in fox_derivative(comm, z2, z2.identity()).items()})
    cover = EquivariantChainComplex(z2, [1, 2, 1], [b1, b2])

    def power_word(gen, k):
        return ((gen, 1),) * k if k >= 0 else ((gen, -1),) * (-k)

    words = [power_word(0, a00) + power_word(1, a10),
             power_word(0, a01) + power_word(1, a11)]
    f0 = unit_matrix(z2)
    f1 = fox_matrix(z2, z2.identity(), words)
    # f2 * b2 = phi(b2) * f1, and b2's entry (0, 0) is 1 - t^(0,1)
    rhs = (b2.apply(endo) * f1).entries.get((0, 0), GroupRingElement(z2, ()))
    f2_entry = _divide_one_minus(rhs, (0, 1))
    f2 = from_rows(z2, [[f2_entry]])
    return TwistedChainMap(cover, endo, [f0, f1, f2])


def torus_lattice_oracle(a: Sequence[Sequence[int]]) -> Dict:
    """Fixed points of x -> Ax on R^2/Z^2 by exact lattice enumeration.

    Solves (A - I) x = k over the rationals for integer vectors k,
    keeping solutions in the unit square; each fixed point has index
    sign(det(I - A)) and path-class witness k.
    """
    (a00, a01), (a10, a11) = a
    m = IntMatrix(2, 2, [a00 - 1, a01, a10, a11 - 1])
    det = determinant(m)
    if det == 0:
        raise ValueError("det(I - A) must be nonzero")
    det_ima = determinant(
        IntMatrix(2, 2, [1 - a00, -a01, -a10, 1 - a11]))
    sign = 1 if det_ima > 0 else -1
    bound = abs(a00 - 1) + abs(a01) + abs(a10) + abs(a11 - 1) + 1
    records = []
    inv = [[Fraction(a11 - 1, det), Fraction(-a01, det)],
           [Fraction(-a10, det), Fraction(a00 - 1, det)]]
    for k0 in range(-bound, bound + 1):
        for k1 in range(-bound, bound + 1):
            x0 = inv[0][0] * k0 + inv[0][1] * k1
            x1 = inv[1][0] * k0 + inv[1][1] * k1
            if 0 <= x0 < 1 and 0 <= x1 < 1:
                records.append(FixedPointRecord(index=sign,
                                                class_witness=(k0, k1)))
    assert len(records) == abs(det)
    return {
        "lefschetz": det_ima,
        "nielsen": abs(det_ima),
        "coefficient": sign,
        "records": records,
        "note": "unit-square solutions of (A - I)x in Z^2; index is the "
                "sign of det(I - A)",
    }
