"""Reidemeister traces via twisted traces on universal-cover chains.

The tree-contracted model of a connected complex (its breadth-first
spanning tree collapsed) has one 0-cell, a 1-cell per non-tree edge and a
2-cell per 2-simplex, attached along its Fox derivatives.  Each Tietze
elimination solves a relator r for a generator x occurring in it once,
so dr/dx is a unit and (r, x) an algebraic Morse pair (Skoldberg 2006).
The chains used here are the reduced complex this leaves, the surviving
generators and the critical 2-cells, with chain maps iota into the
tree-contracted complex and pi back.  A Reidemeister trace is invariant
under chain homotopy equivalence, so the lift pi . F . iota of a
simplicial self-map, a ``TwistedChainMap`` carrying the basepath it went
through, has the twisted trace of the lift F: summed with alternating
signs (``reidemeister_trace_chain``), the chain-level Reidemeister trace.

Matrix convention: rows index source cells and columns target cells, so
matrices of composable maps multiply in diagram order and the twisted
commutation law reads  f_i * d_i = phi(d_i) * f_{i-1}.

Complexes of dimension at least three are not supported by this model
(their cells do not attach along words); no catalog fixture needs them.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from .grouprings import (
    GroupEndomorphism,
    GroupRingElement,
    GroupRingMatrix,
    ShadowElement,
    add_product,
    shadow_sum,
)
from .presentations import (
    Pi1Presentation,
    Word,
    induced_pi1_endo,
    pi1_presentation,
)
from .simplicial import SimplicialComplex, SimplicialMap, _sort_sign


class UnsupportedComplexError(ValueError):
    exit_code = 3


class LiftError(ValueError):
    """A broken invariant of a lift: it has no exit code, so it is a bug."""


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def fox_derivative(word: Word, group, prefix) -> Dict[int, GroupRingElement]:
    """Free derivatives prefix * d(word)/d(x_j) with coefficients in Z[group].

    One pass over the word: the rules D(uv) = D(u) + u D(v), D(x) = 1 and
    D(x^-1) = -x^-1 give each letter a signed prefix element.  The prefix
    element is a running product that starts at ``prefix`` (the identity
    for the plain derivatives): each single letter's group element is
    multiplied on once.  Only the nonzero derivatives appear, keyed by
    generator.
    """
    terms: Dict[int, List] = {}
    for g, e in word:
        letter = group.element(((g, e),))
        if e == -1:
            prefix = group.mul(prefix, letter)
        terms.setdefault(g, []).append((prefix, e))
        if e == 1:
            prefix = group.mul(prefix, letter)
    derivatives = {g: GroupRingElement(group, t) for g, t in terms.items()}
    return {g: d for g, d in derivatives.items() if d.terms}


def degree1_boundary(group) -> GroupRingMatrix:
    """Boundary column g - 1 of a one-vertex model, a 1-cell per generator."""
    return GroupRingMatrix(group, group.rank, 1, {
        (j, 0): GroupRingElement(group, [(group.element(((j, 1),)), 1),
                                         (group.identity(), -1)])
        for j in range(group.rank)})


def fox_matrix(group, g0, words: Sequence[Word]) -> GroupRingMatrix:
    """Entry (e, j) is g0 * d(w_e)/d(x_j), one Fox pass per word in the
    group's generators: the degree-2 boundary of a cover (g0 = 1, the
    relators) or the degree-1 lift (g0 the basepath element, the image
    words of the generators' loops)."""
    return GroupRingMatrix(group, len(words), group.rank, {
        (e, j): d for e, w in enumerate(words)
        for j, d in fox_derivative(w, group, g0).items()})


# ---------------------------------------------------------------------------
# Equivariant chain complexes
# ---------------------------------------------------------------------------

class EquivariantChainComplex:
    """Free Z[group] complex in the row convention described above.

    ``boundaries[i-1]`` is the boundary from degree i to degree i-1, an
    (rank_i x rank_{i-1}) group-ring matrix.  The constructor verifies
    d . d = 0 over the group ring; its builders (``lift_to_universal_cover``
    and ``BundleSelfMapPair.base_lift``) guarantee the counts and shapes.
    A cover keeps its ``presentation`` and the ``reduction`` of ``_reduction``.
    """

    def __init__(self, group, ranks: Sequence[int],
                 boundaries: Sequence[GroupRingMatrix],
                 presentation: Optional[Pi1Presentation] = None,
                 reduction=None):
        self.group = group
        self.ranks = tuple(ranks)
        self.boundaries = tuple(boundaries)
        self.presentation = presentation
        self.reduction = reduction
        for i in range(2, len(self.ranks)):
            acc: Dict = {}
            add_product(acc, self.boundary(i), self.boundary(i - 1))
            if any(acc.values()):
                raise LiftError("boundary composite is nonzero over the group ring")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, i: int) -> GroupRingMatrix:
        return self.boundaries[i - 1]

    def __repr__(self):
        return f"EquivariantChainComplex(ranks={self.ranks}, group={self.group!r})"


class TwistedChainMap:
    """Semilinear self-map: f(g . c) = phi(g) . f(c) on each degree.

    A lift of a self-map is one of these: ``endo`` is the induced
    endomorphism, ``complex.presentation`` the presentation it lives on,
    and ``basepath`` the path from the basepoint to its image that the
    lift went through.  The constructor verifies twisted commutation; its
    builders (``lift_map`` and ``BundleSelfMapPair.base_lift``) guarantee
    one square component per degree.
    """

    def __init__(self, complex: EquivariantChainComplex, endo: GroupEndomorphism,
                 components: Sequence[GroupRingMatrix], basepath: Tuple = ()):
        self.complex = complex
        self.endo = endo
        self.components = tuple(components)
        self.basepath = basepath
        phi: Dict = {}

        def image(g):
            h = phi.get(g)
            if h is None:
                h = phi[g] = endo.apply(g)
            return h

        for i in range(1, complex.top_degree + 1):
            # f_i * d_i - phi(d_i) * f_{i-1} must vanish
            acc: Dict = {}
            add_product(acc, self.components[i], complex.boundary(i))
            add_product(acc, complex.boundary(i), self.components[i - 1],
                        -1, image)
            if any(acc.values()):
                raise LiftError(
                    f"twisted boundary commutation fails in degree {i}")

    def __repr__(self):
        return f"TwistedChainMap(ranks={self.complex.ranks})"


# ---------------------------------------------------------------------------
# Universal cover lifts of simplicial data
# ---------------------------------------------------------------------------

def lift_to_universal_cover(p: Pi1Presentation) -> EquivariantChainComplex:
    """Chains of the universal cover of ``p.complex`` on its reduced model:
    one 0-cell, the surviving generators and the unsolved relators, those
    dropped as trivial or duplicate being cycles."""
    k = p.complex
    if p.group is None:
        raise UnsupportedComplexError(
            "fundamental group not recognized (unsupported)")
    if set(p.component) != set(range(len(k.vertices))):
        raise UnsupportedComplexError(
            "universal-cover lifts need a connected complex")
    if k.dim >= 3:
        raise UnsupportedComplexError(
            "universal-cover lifts support dimension at most 2")
    group, ranks, boundaries, reduction = p.group, [1], [], None
    if k.dim >= 1:
        ranks.append(group.rank)
        boundaries.append(degree1_boundary(group))
    if k.dim >= 2:
        critical, *reduction = _reduction(p)
        ranks.append(len(critical))
        boundaries.append(fox_matrix(group, group.identity(),
                                     [p.relators.get(c, ()) for c in critical]))
    return EquivariantChainComplex(group, ranks, boundaries, p, reduction)


def _add_times(dst: Dict, terms, src: Dict, mul) -> None:
    """dst += (sum of c g over ``terms``) * src, for chains {(cell, g): c}."""
    for (s, h), d in list(src.items()):
        for g, c in terms:
            key = (s, mul(g, h))
            dst[key] = dst.get(key, 0) + c * d


def _reduction(p: Pi1Presentation):
    """The unsolved relators, iota_2 (their 2-chains, from ``p.record``)
    and pi_2, which sends a solved relator to 0 and inverts iota_2.

    An unsolved relator c has the chain u c plus solved relators, u the
    product of the conjugators ``cyclic_reduce`` stripped from c, plus the
    one it duplicates if c was dropped.  So pi_2(c) = u^-1 (c - pi_2 of
    that one's share): kept relators first, then dropped ones, latest first.
    """
    group, one = p.group, p.group.identity()
    mul, el = group.mul, functools.cache(p.element_of_word)
    (solved, steps), cols = p.record, len(p.complex.n_simplices(2))
    chains = {i: {(i, one): 1} for i in range(cols)}
    for j, i, terms, _ in steps:
        _add_times(chains[j], [(el(w), c) for w, c in terms], chains[i], mul)
    critical = [i for i in range(cols) if i not in solved]
    at = {c: n for n, c in enumerate(critical)}
    dropped = [d for d, _, _, drop in reversed(steps) if drop]
    proj: Dict[int, Dict] = {}
    for c in sorted(set(critical) - set(dropped)) + dropped:
        rest = {(at[c], one): 1}
        for (s, g), x in chains[c].items():
            if s == c and x:
                u = g
            elif s in proj:
                _add_times(rest, [(g, -x)], proj[s], mul)
        proj[c] = {}
        _add_times(proj[c], [(group.inv(u), 1)], rest, mul)
    return critical, GroupRingMatrix.from_terms(group, len(critical), cols, {
        (n, s, g): c for n, i in enumerate(critical)
        for (s, g), c in chains[i].items()}), proj


def lift_low_degrees(group, beta: Word, words: Sequence[Word]):
    """The induced endomorphism, the basepath element g0 and the lift in
    degrees 0 and 1, for complexes and graph bases alike: ``words`` are the
    image words of the generators' loops and ``beta`` the basepath's, all
    in the group's generators."""
    endo = induced_pi1_endo(group, beta, words)
    g0 = group.element(beta)
    f0 = GroupRingMatrix(group, 1, 1, {(0, 0): GroupRingElement.of(group, g0)})
    return endo, g0, [f0, fox_matrix(group, g0, words)]


def lift_map(f: SimplicialMap, basepath: Optional[Sequence[Tuple[int, int]]],
             l: EquivariantChainComplex) -> TwistedChainMap:
    """Lift of a simplicial self-map through the chosen basepath.

    ``f`` must be a self-map of the complex ``l.presentation`` presents;
    several maps of one complex may share its cover ``l``.  A basepath of
    ``None`` means the spanning-tree path from the basepoint to its image;
    any other is an edge path there, as ``documents.parse_map`` checks.
    The canonical basepoint lift is sent through the basepath; the
    components are expressed by Fox derivatives of image words in degree
    one and, in degree two, by pi_2 of the image of iota_2(c), each
    2-simplex going to a deck translate of its image with an orientation
    sign.  Twisted commutation is verified exactly and failure is rejected.
    """
    p = l.presentation
    if basepath is None:
        basepath = p.tree_path(f.apply_index(p.complex.index[p.basepoint]))
    basepath = tuple(tuple(s) for s in basepath)
    group = l.group
    words = [p.spelled(p.word_of_path(f.map_path(p.generator_loop(gi))))
             for gi in p.surviving]
    endo, g0, comps = lift_low_degrees(
        group, p.spelled(p.word_of_path(basepath)), words)
    if l.top_degree >= 2:
        iota, proj = l.reduction
        two = p.complex.n_simplices(2)
        at = {s: i for i, s in enumerate(two)}
        mul, el = group.mul, p.element_of_word
        deck = {}  # vertex -> g0 times the element of its tree path's image
        for v, u in p.parent.items():
            deck[v] = g0 if u is None else mul(deck[u], el(
                p.letter_of_step(f.apply_index(u), f.apply_index(v))))
        f2 = {}  # F_2 . pi_2 on the 2-simplices whose image pi_2 keeps
        for i, s in enumerate(two):
            img = [f.apply_index(v) for v in s]
            t = at.get(tuple(sorted(img)))
            if t in proj:  # then back along the image's corner path
                m = mul(deck[s[0]], group.inv(el(p.letter_of_step(
                    two[t][0], img[0]))))
                for (c, g), x in proj[t].items():
                    f2[i, c, mul(m, g)] = _sort_sign(img) * x
        acc: Dict = {}
        add_product(acc, iota, GroupRingMatrix.from_terms(
            group, len(two), iota.rows, f2), 1, endo.apply)
        comps.append(GroupRingMatrix.from_terms(group, iota.rows, iota.rows,
                                                acc))
    return TwistedChainMap(l, endo, comps[:l.top_degree + 1], basepath)


def reidemeister_trace_chain(m: TwistedChainMap, depth: int) -> ShadowElement:
    """Alternating sum of twisted traces of the components: the diagonal
    terms of every degree, read row by row, go to ``shadow_sum``."""
    terms = []
    for i in range(m.complex.top_degree + 1):
        sign = 1 if i % 2 == 0 else -1
        f = m.components[i]
        for j in range(f.rows):
            a = f.entries.get((j, j))
            if a is not None:
                terms.extend((g, sign * c) for g, c in a.terms.values())
    return shadow_sum(m.complex.group, m.endo, terms, depth)


def lift_self_map(k: SimplicialComplex, f: SimplicialMap,
                  basepath: Optional[Sequence[Tuple[int, int]]] = None
                  ) -> TwistedChainMap:
    """Convenience route: presentation, cover and lift in one call.

    The basepoint is the first vertex.  When no basepath is given the
    spanning-tree path from the basepoint to its image is used.
    """
    if not k.vertices:
        raise UnsupportedComplexError(
            "universal-cover lifts need a connected complex")
    p = pi1_presentation(k, k.vertices[0])
    return lift_map(f, basepath, lift_to_universal_cover(p))
