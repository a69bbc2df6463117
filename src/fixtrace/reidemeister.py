"""Reidemeister traces via twisted traces on universal-cover chains.

The cellular model used here is the tree-contracted one: after choosing
the breadth-first spanning tree of a connected complex, the quotient
complex has a single 0-cell, one 1-cell per non-tree edge and one 2-cell
per 2-simplex.  Over the fundamental group the boundary of a 1-cell e is
g_e - 1 and the boundary of a 2-cell is given by the free (Fox)
derivatives of its attaching word.  The lift of a simplicial self-map is
computed from the same data.  It is a ``TwistedChainMap`` that carries
the basepath it was lifted through, and its twisted trace, summed with
alternating signs (``reidemeister_trace_chain``), is the chain-level
Reidemeister trace.

Matrix convention: rows index source cells and columns target cells, so
matrices of composable maps multiply in diagram order and the twisted
commutation law reads  f_i * d_i = phi(d_i) * f_{i-1}.

Complexes of dimension at least three are not supported by this model
(their cells do not attach along words); no catalog fixture needs them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .documents import InputError, json_integer
from .grouprings import (
    DEFAULT_DEPTH,
    GroupEndomorphism,
    GroupRingElement,
    GroupRingMatrix,
    ShadowElement,
    add_product,
    twisted_class,
)
from .presentations import (
    Pi1Presentation,
    Word,
    induced_pi1_endo,
    pi1_presentation,
)
from .simplicial import SimplicialComplex, SimplicialMap, _sort_sign
from .words import invert_word, reduce_word


class UnsupportedComplexError(ValueError):
    pass


class LiftError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def fox_derivative(word: Word, element_of_word: Callable[[Word], object],
                   group) -> Dict[int, GroupRingElement]:
    """Free derivatives d(word)/d(x_j) with coefficients in Z[group].

    One pass over the word: the rules D(uv) = D(u) + u D(v), D(x) = 1 and
    D(x^-1) = -x^-1 give each letter a signed prefix element.  The prefix
    element is kept as a running product: ``element_of_word`` maps each
    single letter to its group element, which is multiplied on once.
    Only the nonzero derivatives appear, keyed by generator.
    """
    terms: Dict[int, List] = {}
    prefix = group.identity()
    for g, e in word:
        letter = element_of_word(((g, e),))
        if e == -1:
            prefix = group.mul(prefix, letter)
        terms.setdefault(g, []).append((prefix, e))
        if e == 1:
            prefix = group.mul(prefix, letter)
    derivatives = {g: GroupRingElement(group, t) for g, t in terms.items()}
    return {g: d for g, d in derivatives.items() if d.terms}


def degree1_boundary(group, loops: Sequence) -> GroupRingMatrix:
    """Boundary column g_e - 1 of the 1-cells of a one-vertex model.

    ``loops`` holds the group element g_e of each 1-cell's loop.
    """
    return GroupRingMatrix(group, len(loops), 1, {
        (e, 0): GroupRingElement(group, [(g_e, 1), (group.identity(), -1)])
        for e, g_e in enumerate(loops)})


def degree1_fox_lift(group, g0, words: Sequence[Word],
                     element_of_word: Callable[[Word], object]
                     ) -> GroupRingMatrix:
    """Degree-1 lift component: entry (e, j) is g0 * d(w_e)/d(x_j).

    ``words`` are the image words of the 1-cells' loops, one per 1-cell,
    and ``g0`` is the group element of the basepath.
    """
    n = len(words)
    g0_elem = GroupRingElement.of(group, g0)
    return GroupRingMatrix(group, n, n, {
        (e, j): g0_elem * d for e, w in enumerate(words)
        for j, d in fox_derivative(w, element_of_word, group).items()})


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
                 presentation: Optional[Pi1Presentation] = None):
        self.group = group
        self.ranks = tuple(int(r) for r in ranks)
        self.boundaries = tuple(boundaries)
        self.presentation = presentation
        if len(self.boundaries) != max(len(self.ranks) - 1, 0):
            raise LiftError("need one boundary per positive degree")
        for i, b in enumerate(self.boundaries, start=1):
            if b.rows != self.ranks[i] or b.cols != self.ranks[i - 1]:
                raise LiftError(f"boundary {i} has shape {b.rows}x{b.cols}")
        for i in range(2, len(self.ranks)):
            acc: Dict = {}
            add_product(acc, self.boundary(i), self.boundary(i - 1))
            if any(acc.values()):
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
    """Semilinear self-map: f(g . c) = phi(g) . f(c) on each degree.

    A lift of a self-map is one of these: ``endo`` is the induced
    endomorphism, ``complex.presentation`` the presentation it lives on,
    and ``basepath`` the path from the basepoint to its image that the
    lift went through.
    """

    def __init__(self, complex: EquivariantChainComplex, endo: GroupEndomorphism,
                 components: Sequence[GroupRingMatrix], basepath: Tuple = ()):
        self.complex = complex
        self.endo = endo
        self.components = tuple(components)
        self.basepath = basepath
        if len(self.components) != complex.top_degree + 1:
            raise LiftError("need one component per degree")
        for i, f in enumerate(self.components):
            if f.rows != complex.rank(i) or f.cols != complex.rank(i):
                raise LiftError(f"component {i} has wrong shape")
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

    def component(self, i: int) -> GroupRingMatrix:
        return self.components[i]

    def __repr__(self):
        return f"TwistedChainMap(ranks={self.complex.ranks})"


# ---------------------------------------------------------------------------
# Universal cover lifts of simplicial data
# ---------------------------------------------------------------------------

def lift_to_universal_cover(p: Pi1Presentation) -> EquivariantChainComplex:
    """Tree-contracted cellular chains of the universal cover of
    ``p.complex``.

    One generator per cell of the contracted complex: a single 0-cell,
    the non-tree edges in degree 1 and the 2-simplices in degree 2.
    Collapsing every group element to 1 recovers the integral chains of
    the contracted complex.
    """
    k = p.complex
    if p.group is None:
        raise UnsupportedComplexError(
            f"fundamental group not recognized ({p.recognized_class})")
    if set(p.component) != set(range(len(k.vertices))):
        raise UnsupportedComplexError(
            "universal-cover lifts need a connected complex")
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
        ent = {}
        for i, s in enumerate(two):
            for j, d in fox_derivative(p.relator(s), p.element_of_word,
                                       group).items():
                ent[i, j] = d
        boundaries.append(GroupRingMatrix(group, len(two), len(gens), ent))
    return EquivariantChainComplex(group, ranks, boundaries, presentation=p)


def lift_map(f: SimplicialMap, basepath: Sequence[Tuple[int, int]],
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
    basepath = tuple(tuple(s) for s in basepath)
    endo = induced_pi1_endo(f, p, basepath)
    group = l.group
    g0 = p.element_of_path(basepath)
    comps: List[GroupRingMatrix] = [
        GroupRingMatrix.from_rows(group, [[GroupRingElement.of(group, g0)]])]
    if l.top_degree >= 1:
        words = [p.word_of_path(f.map_path(p.generator_loop(gi)))
                 for gi in range(len(p.generators))]
        comps.append(degree1_fox_lift(group, g0, words, p.element_of_word))
    if l.top_degree >= 2:
        two = p.complex.n_simplices(2)
        pos = {s: i for i, s in enumerate(two)}
        ent2 = {}
        for i, (a, b, c) in enumerate(two):
            img = (f.apply_index(a), f.apply_index(b), f.apply_index(c))
            if len(set(img)) != len(img):
                continue
            tau = tuple(sorted(img))
            if tau not in pos:
                raise LiftError("image 2-simplex missing from the complex")
            sign = _sort_sign(img)
            # deck element: basepath, then the image of the tree path of the
            # least vertex, then back along tau's own corner path
            a_word = p.word_of_path(f.map_path(p.tree_path(a)))
            fa = img[0]
            x = tau[0]
            corner = () if fa == x else p.letter_of_step(x, fa)
            m_word = reduce_word(a_word + invert_word(corner))
            m = group.mul(g0, p.element_of_word(m_word))
            ent2[i, pos[tau]] = GroupRingElement.of(group, m, sign)
        comps.append(GroupRingMatrix(group, len(two), len(two), ent2))
    return TwistedChainMap(l, endo, comps, basepath)


def reidemeister_trace_chain(m: TwistedChainMap,
                             depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Alternating sum of twisted traces of the components.

    The diagonal terms of every degree are first summed by group element,
    and only elements with a nonzero net coefficient are classified: the
    rest would cancel in their class anyway.
    """
    net: Dict = {}
    for i in range(m.complex.top_degree + 1):
        sign = 1 if i % 2 == 0 else -1
        f = m.component(i)
        for j in range(f.rows):
            a = f.entries.get((j, j))
            if a is not None:
                for g, c in a.terms.values():
                    net[g] = net.get(g, 0) + sign * c
    group = m.complex.group
    return ShadowElement(group, m.endo, [
        (twisted_class(group, m.endo, g, depth), c)
        for g, c in net.items() if c])


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
    return lift_on_cover(lift_to_universal_cover(p), f, basepath)


def lift_on_cover(cover: EquivariantChainComplex, f: SimplicialMap,
                  basepath: Optional[Sequence[Tuple[int, int]]] = None
                  ) -> TwistedChainMap:
    """Lift of a self-map to a cover already built for its complex, so
    that several maps of one complex share its presentation and cover.

    When no basepath is given the spanning-tree path from the basepoint
    to its image is used.
    """
    if basepath is None:
        p = cover.presentation
        basepath = p.tree_path(f.apply_index(p.complex.index[p.basepoint]))
    return lift_map(f, basepath, cover)


# ---------------------------------------------------------------------------
# Geometric route
# ---------------------------------------------------------------------------

class FixedPointRecord:
    """An isolated fixed point: local index plus a path class witness.

    The witness is the group element of the path from the basepoint
    whiskering of the fixed point's path to its image, i.e. the twisted
    class datum of the fixed point.
    """

    __slots__ = ("label", "index", "class_witness")

    def __init__(self, label, index: int, class_witness):
        self.label = label
        self.index = index
        self.class_witness = class_witness


def parse_fixed_point_records(doc: Dict, group
                              ) -> Optional[List[FixedPointRecord]]:
    """The ``fixed_point_records`` of a map document, or None if it has none.

    A witness is an integer vector over a free abelian ``group`` and a list
    of ``[generator, exponent]`` letters over a free one.
    """
    raw = doc.get("fixed_point_records")
    if raw is None:
        return None
    records = []
    try:
        for r in raw:
            witness = r["witness"]
            if group.kind == "free_abelian":
                witness = tuple(json_integer(x, "witness entry")
                                for x in witness)
            else:
                witness = tuple((json_integer(g, "witness generator"),
                                 json_integer(e, "witness exponent"))
                                for g, e in witness)
            records.append(FixedPointRecord(
                label=r.get("label"),
                index=json_integer(r["index"], "fixed point index"),
                class_witness=witness))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid fixed_point_records: {exc!r}")
    return records


def reidemeister_trace_geometric(records: Sequence[FixedPointRecord], group,
                                 endo: GroupEndomorphism,
                                 depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Sum of index-weighted twisted classes of the fixed-point witnesses."""
    terms = []
    for r in records:
        terms.append((twisted_class(group, endo, r.class_witness, depth),
                      r.index))
    return ShadowElement(group, endo, terms)
