"""Reidemeister traces via twisted traces on universal-cover chains.

The cellular model used here is the tree-contracted one: after choosing
the breadth-first spanning tree of a connected complex, the quotient
complex has a single 0-cell, one 1-cell per non-tree edge and one 2-cell
per 2-simplex.  Over the fundamental group the boundary of a 1-cell e is
g_e - 1 and the boundary of a 2-cell is given by the free (Fox)
derivatives of its attaching word.  The lift of a simplicial self-map is
computed from the same data; its twisted trace, summed with alternating
signs, is the chain-level Reidemeister trace.

Matrix convention: rows index source cells and columns target cells, so
matrices of composable maps multiply in diagram order and the twisted
commutation law reads  f_i * d_i = phi(d_i) * f_{i-1}.

Complexes of dimension at least three are not supported by this model
(their cells do not attach along words); no catalog fixture needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .grouprings import (
    DEFAULT_DEPTH,
    GroupEndomorphism,
    GroupRingElement,
    GroupRingMatrix,
    ShadowElement,
    invert_word,
    reduce_word,
    twisted_class,
    twisted_hs_trace,
)
from .simplicial import (
    Pi1Presentation,
    SimplicialComplex,
    SimplicialMap,
    Word,
    induced_pi1_endo,
    pi1_presentation,
    validate_edge_path,
)


class UnsupportedComplexError(ValueError):
    pass


class LiftError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def fox_derivative(word: Word, gen: int, element_of_word: Callable[[Word], object],
                   group) -> GroupRingElement:
    """Free derivative d(word)/d(gen) with coefficients in Z[group].

    ``element_of_word`` maps prefix words (over the same letters) to group
    elements; the usual rules D(uv) = D(u) + u D(v), D(x) = 1 and
    D(x^-1) = -x^-1 give, letter by letter, a signed prefix element.
    """
    terms = []
    prefix: List[Tuple[int, int]] = []
    for g, e in word:
        if e == 1:
            if g == gen:
                terms.append((element_of_word(tuple(prefix)), 1))
            prefix.append((g, e))
        else:
            prefix.append((g, e))
            if g == gen:
                terms.append((element_of_word(tuple(prefix)), -1))
    return GroupRingElement(group, terms)


def degree1_boundary(group, loops: Sequence) -> GroupRingMatrix:
    """Boundary column g_e - 1 of the 1-cells of a one-vertex model.

    ``loops`` holds the group element g_e of each 1-cell's loop.
    """
    return GroupRingMatrix(group, len(loops), 1, [
        GroupRingElement(group, [(g_e, 1), (group.identity(), -1)])
        for g_e in loops])


def degree1_fox_lift(group, g0, words: Sequence[Word],
                     element_of_word: Callable[[Word], object]
                     ) -> GroupRingMatrix:
    """Degree-1 lift component: entry (e, j) is g0 * d(w_e)/d(x_j).

    ``words`` are the image words of the 1-cells' loops, one per 1-cell,
    and ``g0`` is the group element of the basepath.
    """
    n = len(words)
    g0_elem = GroupRingElement.of(group, g0)
    return GroupRingMatrix(group, n, n, [
        g0_elem * fox_derivative(w, j, element_of_word, group)
        for w in words for j in range(n)])


# ---------------------------------------------------------------------------
# Equivariant chain complexes
# ---------------------------------------------------------------------------

class EquivariantChainComplex:
    """Free Z[group] complex in the row convention described above.

    ``boundaries[i-1]`` is the boundary from degree i to degree i-1, an
    (rank_i x rank_{i-1}) group-ring matrix.
    """

    def __init__(self, group, ranks: Sequence[int],
                 boundaries: Sequence[GroupRingMatrix],
                 presentation: Optional[Pi1Presentation] = None,
                 two_simplices: Optional[Sequence[Tuple[int, int, int]]] = None,
                 check: bool = True):
        self.group = group
        self.ranks = tuple(int(r) for r in ranks)
        self.boundaries = tuple(boundaries)
        self.presentation = presentation
        self.two_simplices = tuple(two_simplices) if two_simplices else ()
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            raise LiftError("need one boundary per positive degree")
        for i, b in enumerate(self.boundaries, start=1):
            if b.rows != self.ranks[i] or b.cols != self.ranks[i - 1]:
                raise LiftError(f"boundary {i} has shape {b.rows}x{b.cols}")
        if check:
            for i in range(2, len(self.ranks)):
                if not (self.boundary(i) * self.boundary(i - 1)).is_zero():
                    raise LiftError("boundary composite is nonzero over the group ring")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, i: int) -> int:
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0

    def boundary(self, i: int) -> GroupRingMatrix:
        if 1 <= i <= self.top_degree:
            return self.boundaries[i - 1]
        return GroupRingMatrix(self.group, self.rank(i), self.rank(i - 1))

    def augmented_complex(self):
        """Integral complex obtained by sending every group element to 1."""
        from .exactalg import ChainComplex
        bnds = [self.boundary(i).augmented().transpose()
                for i in range(1, self.top_degree + 1)]
        return ChainComplex(self.ranks, bnds)

    def __repr__(self):
        return f"EquivariantChainComplex(ranks={self.ranks}, group={self.group!r})"


class TwistedChainMap:
    """Semilinear self-map: f(g . c) = phi(g) . f(c) on each degree."""

    def __init__(self, complex: EquivariantChainComplex, endo: GroupEndomorphism,
                 components: Sequence[GroupRingMatrix], check: bool = True):
        self.complex = complex
        self.endo = endo
        self.components = tuple(components)
        if len(self.components) != complex.top_degree + 1:
            raise LiftError("need one component per degree")
        for i, f in enumerate(self.components):
            if f.rows != complex.rank(i) or f.cols != complex.rank(i):
                raise LiftError(f"component {i} has wrong shape")
        if check:
            for i in range(1, complex.top_degree + 1):
                lhs = self.components[i] * complex.boundary(i)
                rhs = complex.boundary(i).apply(endo) * self.components[i - 1]
                if not (lhs + (-rhs)).is_zero():
                    raise LiftError(
                        f"twisted boundary commutation fails in degree {i}")

    def component(self, i: int) -> GroupRingMatrix:
        return self.components[i]

    def __repr__(self):
        return f"TwistedChainMap(ranks={self.complex.ranks})"


# ---------------------------------------------------------------------------
# Universal cover lifts of simplicial data
# ---------------------------------------------------------------------------

def lift_to_universal_cover(k: SimplicialComplex, p: Pi1Presentation
                            ) -> EquivariantChainComplex:
    """Tree-contracted cellular chains of the universal cover.

    One generator per cell of the contracted complex: a single 0-cell,
    the non-tree edges in degree 1 and the 2-simplices in degree 2.
    Collapsing every group element to 1 recovers the integral chains of
    the contracted complex.
    """
    if p.complex != k:
        raise LiftError("presentation belongs to a different complex")
    if p.group is None:
        raise UnsupportedComplexError(
            f"fundamental group not recognized ({p.recognized_class})")
    if set(p.component) != set(range(len(k.vertices))):
        raise LiftError("complex must be connected (pass one component)")
    if k.dim >= 3:
        raise UnsupportedComplexError(
            "universal-cover lifts support dimension at most 2")
    group = p.group
    gens = p.generators
    ranks = [1]
    boundaries: List[GroupRingMatrix] = []
    if gens or k.dim >= 1:
        ranks.append(len(gens))
        boundaries.append(degree1_boundary(
            group, [p.element_of_word(((gi, 1),)) for gi in range(len(gens))]))
    two = tuple(k.n_simplices(2))
    if two:
        ranks.append(len(two))
        ent = []
        for (a, b, c) in two:
            w = reduce_word(p.letter_of_step(a, b) + p.letter_of_step(b, c)
                            + invert_word(p.letter_of_step(a, c)))
            for j in range(len(gens)):
                ent.append(fox_derivative(w, j, p.element_of_word, group))
        b2 = GroupRingMatrix(group, len(two), len(gens), ent)
        boundaries.append(b2)
    return EquivariantChainComplex(group, ranks, boundaries,
                                   presentation=p, two_simplices=two)


def _default_basepath(p: Pi1Presentation, f: SimplicialMap) -> List[Tuple[int, int]]:
    """Tree path from the basepoint to its image; deterministic."""
    b = p.complex.index[p.basepoint]
    return p.tree_path(f.apply_index(b))


def lift_map(f: SimplicialMap, basepath: Optional[Sequence[Tuple[int, int]]],
             l: EquivariantChainComplex) -> TwistedChainMap:
    """Lift of a simplicial self-map through the chosen basepath.

    The canonical basepoint lift is sent through the basepath; the
    components are expressed by Fox derivatives of image words in degree
    one and by a deck translate with an orientation sign in degree two.
    Twisted commutation is verified exactly and failure is rejected.
    """
    p = l.presentation
    if p is None:
        raise LiftError("complex carries no presentation data")
    if not f.is_endomorphism() or f.source != p.complex:
        raise LiftError("map does not match the lifted complex")
    if basepath is None:
        basepath = _default_basepath(p, f)
    basepath = [tuple(s) for s in basepath]
    endo = induced_pi1_endo(f, p, basepath)
    group = l.group
    g0 = p.element_of_path(basepath)
    comps: List[GroupRingMatrix] = [
        GroupRingMatrix(group, 1, 1, [GroupRingElement.of(group, g0)])]

    def image_steps(steps):
        return [(f.apply_index(a), f.apply_index(b)) for a, b in steps]

    if l.top_degree >= 1:
        words = [p.word_of_path(image_steps(p.generator_loop(gi)))
                 for gi in range(len(p.generators))]
        comps.append(degree1_fox_lift(group, g0, words, p.element_of_word))
    if l.top_degree >= 2:
        two = l.two_simplices
        pos = {s: i for i, s in enumerate(two)}
        n2 = len(two)
        ent2 = [GroupRingElement.zero(group) for _ in range(n2 * n2)]
        for i, (a, b, c) in enumerate(two):
            img = (f.apply_index(a), f.apply_index(b), f.apply_index(c))
            if len(set(img)) != len(img):
                continue
            tau = tuple(sorted(img))
            if tau not in pos:
                raise LiftError("image 2-simplex missing from the complex")
            inv = sum(1 for s in range(3) for t in range(s + 1, 3)
                      if img[s] > img[t])
            sign = -1 if inv % 2 else 1
            # deck element: basepath, then the image of the tree path of the
            # least vertex, then back along tau's own corner path
            a_word = p.word_of_path(image_steps(p.tree_path(a)))
            fa = img[0]
            x = tau[0]
            corner = () if fa == x else p.letter_of_step(x, fa)
            m_word = reduce_word(a_word + invert_word(corner))
            m = group.mul(g0, p.element_of_word(m_word))
            ent2[i * n2 + pos[tau]] = GroupRingElement.of(group, m, sign)
        comps.append(GroupRingMatrix(group, n2, n2, ent2))
    return TwistedChainMap(l, endo, comps)


def reidemeister_trace_chain(m: TwistedChainMap,
                             depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Alternating sum of twisted traces of the components."""
    total = ShadowElement.zero(m.complex.group, m.endo)
    for i in range(m.complex.top_degree + 1):
        t = twisted_hs_trace(m.component(i), m.endo, depth)
        total = total + (t if i % 2 == 0 else t.scale(-1))
    return total


@dataclass
class LiftedSelfMap:
    """A self-map lifted to the universal-cover model, ready for traces."""

    presentation: Pi1Presentation
    cover: EquivariantChainComplex
    chain_map: TwistedChainMap
    basepath: Tuple[Tuple[int, int], ...]

    @property
    def endo(self) -> GroupEndomorphism:
        return self.chain_map.endo

    def trace(self, depth: int = DEFAULT_DEPTH) -> ShadowElement:
        return reidemeister_trace_chain(self.chain_map, depth)


def lift_self_map(k: SimplicialComplex, f: SimplicialMap, basepoint=None,
                  basepath: Optional[Sequence[Tuple[int, int]]] = None
                  ) -> LiftedSelfMap:
    """Convenience route: presentation, cover and lift in one call.

    When no basepath is given the spanning-tree path from the basepoint
    to its image is used.
    """
    if basepoint is None:
        basepoint = k.vertices[0]
    p = pi1_presentation(k, basepoint)
    cover = lift_to_universal_cover(k, p)
    if basepath is None:
        basepath = _default_basepath(p, f)
    else:
        b = k.index[basepoint]
        validate_edge_path(k, [tuple(s) for s in basepath], b,
                           f.apply_index(b))
    cm = lift_map(f, basepath, cover)
    return LiftedSelfMap(presentation=p, cover=cover, chain_map=cm,
                         basepath=tuple(tuple(s) for s in basepath))


# ---------------------------------------------------------------------------
# Geometric route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointRecord:
    """An isolated fixed point: local index plus a path class witness.

    The witness is the group element of the path from the basepoint
    whiskering of the fixed point's path to its image, i.e. the twisted
    class datum of the fixed point.
    """

    label: object
    index: int
    class_witness: object


def reidemeister_trace_geometric(records: Sequence[FixedPointRecord], group,
                                 endo: GroupEndomorphism,
                                 depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Sum of index-weighted twisted classes of the fixed-point witnesses."""
    terms = []
    for r in records:
        terms.append((twisted_class(group, endo, r.class_witness, depth),
                      r.index))
    return ShadowElement(group, endo, terms)
