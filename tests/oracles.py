"""Test oracles and fixtures that no command computes.

The determinant checks that Smith transforms are unimodular and counts
torus fixed points; composing chain maps checks that the chain functor
is functorial; disjoint unions and the two-piece identity pairs check
that Euler characteristics add over components; the small graph bases
and the K4 point-fiber pairs build test pairs; the class-path check
walks each class path that ``fiber_composite`` trusts; the rank-one rule
m mod |1 - d| decides twisted classes of z -> z^d without a Smith form;
and identity maps and group-ring matrices given by rows build test
inputs.  None of them runs in a command, so they live with the tests.
"""

from __future__ import annotations

from typing import List, Tuple

from fixtrace.bundles import (
    BundleSelfMapPair,
    DiscreteBundle,
    GraphBase,
    GraphSelfMap,
    Transport,
)
from fixtrace.catalog import (
    circle_complex,
    point_complex,
    point_fiber_bundle,
    two_point_complex,
)
from fixtrace.exactalg import ChainComplex, ChainMap, ExactAlgError, IntMatrix
from fixtrace.grouprings import GroupError, GroupRingMatrix
from fixtrace.simplicial import SimplicialComplex, SimplicialMap


def determinant(m: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant; square matrices only."""
    if m.rows != m.cols:
        raise ExactAlgError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [[m[i, j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def identity_map(k: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(k, k, {v: v for v in k.vertices})


def from_rows(group, rows) -> GroupRingMatrix:
    """The group-ring matrix with the given rows of ``GroupRingElement``s."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise GroupError("rows of unequal length")
    return GroupRingMatrix(group, r, c, {
        (i, j): a for i, row in enumerate(rows) for j, a in enumerate(row)})


def rank1_class_key(m: int, d: int) -> int:
    """The twisted class of z^m under phi(z) = z^d, where z^m is related
    to z^(m + (d - 1) k) for every k: the residue of m modulo |1 - d|, or
    m itself when d = 1."""
    c = 1 - d
    return m % abs(c) if c != 0 else m


def identity_chain_map(c: ChainComplex) -> ChainMap:
    comps = [IntMatrix.identity(c.rank(i)) for i in range(c.top_degree + 1)]
    return ChainMap(c, c, comps)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """The chain map g after f."""
    if (f.target.degrees, f.target.boundaries) != (g.source.degrees,
                                                   g.source.boundaries):
        raise ExactAlgError("composition shape mismatch")
    top = max(len(g.components), len(f.components))
    comps = [g.component(i) * f.component(i) for i in range(top)]
    return ChainMap(f.source, g.target, comps)


def disjoint_union(k: SimplicialComplex, l: SimplicialComplex,
                   tags=(0, 1)) -> SimplicialComplex:
    """Disjoint union with vertices relabeled (tag, original id)."""
    verts = ([(tags[0], v) for v in k.vertices]
             + [(tags[1], v) for v in l.vertices])
    shift = len(k.vertices)
    levels = []
    for d in range(max(k.dim, l.dim) + 1):
        level = list(k.n_simplices(d)) + [tuple(i + shift for i in s)
                                          for s in l.n_simplices(d)]
        levels.append(level)
    return SimplicialComplex(verts, levels)


def interval_base() -> GraphBase:
    return GraphBase(["b0", "b1"], [("e0", "b0", "b1")], ["e0"], "b0")


def figure_eight_base() -> GraphBase:
    """One vertex, two loop edges; the free group of rank two."""
    return GraphBase(["b0"], [("a", "b0", "b0"), ("b", "b0", "b0")], [], "b0")


def point_base() -> GraphBase:
    return GraphBase(["b0"], [], [], "b0")


def k4_point_fiber_pair(images) -> BundleSelfMapPair:
    """A point fiber over K4 (the three edges at b0 as the tree) and the
    base map sending b_i to b_images[i], each edge to the edge between the
    images or, where they agree, to no edge."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    base = GraphBase([f"b{i}" for i in range(4)],
                     [(f"e{i}{j}", f"b{i}", f"b{j}") for i, j in pairs],
                     ["e01", "e02", "e03"], "b0")
    words = {}
    for i, j in pairs:
        a, b = images[i], images[j]
        words[f"e{i}{j}"] = ([] if a == b else [(f"e{a}{b}", 1)] if a < b
                             else [(f"e{b}{a}", -1)])
    bmap = GraphSelfMap(base, {f"b{i}": f"b{images[i]}" for i in range(4)},
                        words)
    pt = point_complex()
    return BundleSelfMapPair(
        point_fiber_bundle(base), bmap,
        {v: SimplicialMap(pt, pt, {"p": "p"}) for v in base.vertices})


def check_class_paths(pair: BundleSelfMapPair, depth: int) -> None:
    """Every class of the base trace at ``depth`` has a class path from
    the basepoint to its image, the path ``fiber_composite`` transports
    back along; the library builds it and does not check it again."""
    base = pair.bundle.base
    end = pair.base_map.vertex_images[base.basepoint]
    for cls, _ in pair.base_trace(depth).items():
        base.validate_word(pair.class_path(cls), base.basepoint, end)


def two_component_euler_fixtures() -> List[Tuple[BundleSelfMapPair, int]]:
    """Identity pairs on two bundles with different fiber characteristics.

    Models a disconnected base as two connected pieces: a point base with
    a two-point fiber and an interval base with a circle fiber.  Returns
    (pair, expected chi contribution) per piece.
    """
    base1 = point_base()
    fib1 = two_point_complex()
    bundle1 = DiscreteBundle(base1, {"b0": fib1}, {})
    bmap1 = GraphSelfMap(base1, {"b0": "b0"}, {})
    pair1 = BundleSelfMapPair(bundle1, bmap1, {"b0": identity_map(fib1)})
    base2 = interval_base()
    fib2 = circle_complex(3)
    ident2 = identity_map(fib2)
    bundle2 = DiscreteBundle(base2, {"b0": fib2, "b1": fib2},
                             {"e0": Transport(ident2, ident2)})
    bmap2 = GraphSelfMap(base2, {"b0": "b0", "b1": "b1"},
                         {"e0": [("e0", 1)]})
    pair2 = BundleSelfMapPair(bundle2, bmap2, {"b0": ident2, "b1": ident2})
    return [(pair1, 1 * 2), (pair2, 1 * 0)]
