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
Reidemeister trace.  ``fox_matrix`` builds the degree-2 boundary and the
degree-1 lift, ``lift_low_degrees`` lifts complexes and graph bases alike,
and both trace routes sum classes with ``grouprings.shadow_sum``.

Matrix convention: rows index source cells and columns target cells, so
matrices of composable maps multiply in diagram order and the twisted
commutation law reads  f_i * d_i = phi(d_i) * f_{i-1}.

Complexes of dimension at least three are not supported by this model
(their cells do not attach along words); no catalog fixture needs them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .documents import InputError, json_integer, json_sign
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
from .words import invert_word, reduce_word


class UnsupportedComplexError(ValueError):
    exit_code = 3


class LiftError(ValueError):
    """A broken invariant of a lift: it has no exit code, so it is a bug."""


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def fox_derivative(word: Word, element_of_word: Callable[[Word], object],
                   group, prefix) -> Dict[int, GroupRingElement]:
    """Free derivatives prefix * d(word)/d(x_j) with coefficients in Z[group].

    One pass over the word: the rules D(uv) = D(u) + u D(v), D(x) = 1 and
    D(x^-1) = -x^-1 give each letter a signed prefix element.  The prefix
    element is a running product that starts at ``prefix`` (the identity
    for the plain derivatives): ``element_of_word`` maps each single
    letter to its group element, which is multiplied on once.  Only the
    nonzero derivatives appear, keyed by generator.
    """
    terms: Dict[int, List] = {}
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


def fox_matrix(group, g0, words: Sequence[Word], cols: int,
               element_of_word: Callable[[Word], object]) -> GroupRingMatrix:
    """Entry (e, j) is g0 * d(w_e)/d(x_j), one Fox pass per word: the
    degree-2 boundary of a cover (g0 = 1, the relators) or the degree-1
    lift (g0 the basepath element, the image words of the 1-cells' loops).
    """
    return GroupRingMatrix(group, len(words), cols, {
        (e, j): d for e, w in enumerate(words)
        for j, d in fox_derivative(w, element_of_word, group, g0).items()})


# ---------------------------------------------------------------------------
# Equivariant chain complexes
# ---------------------------------------------------------------------------

class EquivariantChainComplex:
    """Free Z[group] complex in the row convention described above.

    ``boundaries[i-1]`` is the boundary from degree i to degree i-1, an
    (rank_i x rank_{i-1}) group-ring matrix.  The constructor verifies
    d . d = 0 over the group ring; its builders (``lift_to_universal_cover``
    and ``BundleSelfMapPair.base_lift``) guarantee the counts and shapes.
    """

    def __init__(self, group, ranks: Sequence[int],
                 boundaries: Sequence[GroupRingMatrix],
                 presentation: Optional[Pi1Presentation] = None):
        self.group = group
        self.ranks = tuple(ranks)
        self.boundaries = tuple(boundaries)
        self.presentation = presentation
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
            "fundamental group not recognized (unsupported)")
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
        boundaries.append(fox_matrix(group, group.identity(),
                                     [p.relator(s) for s in two], len(gens),
                                     p.element_of_word))
    return EquivariantChainComplex(group, ranks, boundaries, presentation=p)


def lift_low_degrees(group, element_of_word: Callable[[Word], object],
                     beta: Word, words: Sequence[Word], surviving):
    """The induced endomorphism, the basepath element g0 and the lift in
    degrees 0 and 1, for complexes and graph bases alike: ``words`` are the
    image words of the generator loops, ``surviving`` the generators the
    group keeps and ``beta`` the basepath's word."""
    endo = induced_pi1_endo(group, element_of_word, beta,
                            [words[gi] for gi in surviving])
    g0 = element_of_word(beta)
    f0 = GroupRingMatrix(group, 1, 1, {(0, 0): GroupRingElement.of(group, g0)})
    return endo, g0, [f0, fox_matrix(group, g0, words, len(words),
                                     element_of_word)]


def lift_map(f: SimplicialMap, basepath: Optional[Sequence[Tuple[int, int]]],
             l: EquivariantChainComplex) -> TwistedChainMap:
    """Lift of a simplicial self-map through the chosen basepath.

    ``f`` must be a self-map of the complex ``l.presentation`` presents;
    several maps of one complex may share its cover ``l``.  A basepath of
    ``None`` means the spanning-tree path from the basepoint to its image;
    any other is an edge path there, as ``documents.parse_map`` checks.
    The canonical basepoint lift is sent through the basepath; the
    components are expressed by Fox derivatives of image words in degree
    one and by a deck translate with an orientation sign in degree two.
    Twisted commutation is verified exactly and failure is rejected.
    """
    p = l.presentation
    b = p.complex.index[p.basepoint]
    fb = f.apply_index(b)
    if basepath is None:
        basepath = p.tree_path(fb)
    basepath = tuple(tuple(s) for s in basepath)
    group = l.group
    words = [p.word_of_path(f.map_path(p.generator_loop(gi)))
             for gi in range(len(p.generators))]
    endo, g0, comps = lift_low_degrees(group, p.element_of_word,
                                       p.word_of_path(basepath), words,
                                       p.surviving)
    if l.top_degree >= 2:
        two = p.complex.n_simplices(2)
        pos = {s: i for i, s in enumerate(two)}
        ent2 = {}
        for i, (a, b, c) in enumerate(two):
            img = (f.apply_index(a), f.apply_index(b), f.apply_index(c))
            if len(set(img)) != len(img):
                continue
            tau = tuple(sorted(img))
            sign = _sort_sign(img)
            # deck element: basepath, then the image of the tree path of the
            # least vertex, then back along tau's own corner path
            a_word = p.word_of_path(f.map_path(p.tree_path(a)))
            fa = img[0]
            x = tau[0]
            corner = p.letter_of_step(x, fa)
            m_word = reduce_word(a_word + invert_word(corner))
            m = group.mul(g0, p.element_of_word(m_word))
            ent2[i, pos[tau]] = GroupRingElement.of(group, m, sign)
        comps.append(GroupRingMatrix(group, len(two), len(two), ent2))
    return TwistedChainMap(l, endo, comps[:l.top_degree + 1], basepath)


def reidemeister_trace_chain(m: TwistedChainMap, depth: int) -> ShadowElement:
    """Alternating sum of twisted traces of the components: the diagonal
    terms of every degree, read row by row, go to ``shadow_sum``."""
    terms = []
    for i in range(m.complex.top_degree + 1):
        sign = 1 if i % 2 == 0 else -1
        f = m.component(i)
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


# ---------------------------------------------------------------------------
# Geometric route
# ---------------------------------------------------------------------------

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
