"""Test oracles and fixtures that no command computes.

The determinant checks that Smith transforms are unimodular and counts
torus fixed points; composing chain maps checks that the chain functor
is functorial; disjoint unions and the two-piece identity pairs check
that Euler characteristics add over components; the small graph bases
and the K4 point-fiber pairs build test pairs; the class-path check
walks each class path that ``fiber_composite`` trusts; the rank-one rule
m mod |1 - d| decides twisted classes of z -> z^d without a Smith form;
the full lift on the tree-contracted complex, which commands replace by
its Tietze reduction, checks the reduced traces; and identity maps and
group-ring matrices given by rows build test inputs.  None of them runs
in a command, so they live with the tests.
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
from fixtrace.grouprings import GroupError, GroupRingElement, GroupRingMatrix
from fixtrace.presentations import (Pi1Presentation, induced_pi1_endo,
                                    pi1_presentation)
from fixtrace.reidemeister import (EquivariantChainComplex, TwistedChainMap,
                                   lift_to_universal_cover)
from fixtrace.simplicial import SimplicialComplex, SimplicialMap, _sort_sign
from fixtrace.words import invert_word, reduce_word


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


def _edge_fox_matrix(p: Pi1Presentation, g0, words) -> GroupRingMatrix:
    """Entry (e, x) is g0 * d(w_e)/dx over the edge generators x, each
    term's prefix read as a whole word (no running product)."""
    group, entries = p.group, {}
    for e, w in enumerate(words):
        for k, (x, sign) in enumerate(w):
            prefix = p.element_of_word(w[:k + (sign < 0)])
            entries.setdefault((e, x), []).append((group.mul(g0, prefix),
                                                   sign))
    return GroupRingMatrix(group, len(words), len(p.generators), {
        ex: GroupRingElement(group, t) for ex, t in entries.items()})


def full_lift(k: SimplicialComplex, f: SimplicialMap,
              basepath=None) -> TwistedChainMap:
    """The lift of f on the tree-contracted complex, at the first vertex:
    a 1-cell per non-tree edge, bounded by g_e - 1, and a 2-cell per
    2-simplex, bounded by the Fox derivatives of its boundary loop.  A
    2-simplex goes to the deck translate of its image that the basepath,
    the image of the tree path of its least vertex and the image's own
    corner path name, with the orientation sign; the twisted commutation
    and d . d = 0 are checked as for the reduced lift."""
    p = pi1_presentation(k, k.vertices[0])
    lift_to_universal_cover(p)  # the same checks of the group and complex
    group, n = p.group, len(p.generators)
    loops = [p.word_of_path(f.map_path(p.generator_loop(e)))
             for e in range(n)]
    two = k.n_simplices(2)
    cover = EquivariantChainComplex(group, [1, n, len(two)][:k.dim + 1], [
        GroupRingMatrix(group, n, 1, {(e, 0): GroupRingElement(group, [
            (p.element_of_word(((e, 1),)), 1), (group.identity(), -1)])
            for e in range(n)}),
        _edge_fox_matrix(p, group.identity(), [
            p.word_of_path(((a, b), (b, c), (c, a))) for a, b, c in two]),
    ][:k.dim], p)
    if basepath is None:
        basepath = p.tree_path(f.apply_index(0))
    beta = p.word_of_path(basepath)
    endo = induced_pi1_endo(group, p.spelled(beta),
                            [p.spelled(loops[e]) for e in p.surviving])
    g0 = p.element_of_word(beta)
    comps = [GroupRingMatrix(group, 1, 1, {(0, 0): GroupRingElement.of(
        group, g0)}), _edge_fox_matrix(p, g0, loops)]
    at = {s: i for i, s in enumerate(two)}
    f2 = {}
    for i, (a, b, c) in enumerate(two):
        img = (f.apply_index(a), f.apply_index(b), f.apply_index(c))
        if len(set(img)) == 3:
            tau = tuple(sorted(img))
            word = reduce_word(p.word_of_path(f.map_path(p.tree_path(a)))
                               + invert_word(p.letter_of_step(tau[0], img[0])))
            f2[i, at[tau]] = GroupRingElement.of(
                group, group.mul(g0, p.element_of_word(word)), _sort_sign(img))
    comps.append(GroupRingMatrix(group, len(two), len(two), f2))
    return TwistedChainMap(cover, endo, comps[:cover.top_degree + 1],
                           tuple(tuple(s) for s in basepath))


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
