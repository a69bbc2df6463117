"""Twisted conjugacy classes, group rings and shadow traces.

Two group classes are supported exactly:

* free abelian groups Z^n (elements are integer vectors),
* free groups F_k (elements are reduced words).

Twisted conjugacy is the relation g ~ phi(h) * g * h^-1 for an
endomorphism phi.  It is the relation that ``lift_map``'s deck convention
puts the diagonal terms in: deck elements act on cells from the left and a
lift F satisfies F(h c) = phi(h) F(c), so lifting a cell as h c instead of
c turns its diagonal term g into phi(h) * g * h^-1.  Over Z^n, and over
F_1, which is Z written as words, one rule decides the class: its key is
the abelianized element reduced modulo the image of I - A
(``endo.classifier``), and its representative is the vector that key
names, written over F_1 as a power of the generator.  For free groups of
rank at least two the problem is attacked by bounded search and the
results are marked heuristic unless the endomorphism is the identity
(ordinary conjugacy, decided by cyclic words).

A shadow element is a finite integer combination of twisted conjugacy
classes; it is the value domain of twisted traces of group-ring matrices
and of Reidemeister traces.

Nothing here checks a group element.  The library builds each one with
its group's ``element``, ``mul``, ``inv`` or ``identity``, and the one
kind a document supplies, a fixed point witness, is checked where it
enters, by ``records.parse_fixed_point_records``.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .exactalg import IntMatrix, smith_normal_form
from .words import (
    cyclic_normal_form,
    invert_word,
    join_reduced,
    reduce_word,
)

# The orbit-search depth of a command without --depth; only cli reads it.
DEFAULT_DEPTH = 8


class GroupError(ValueError):
    """Bad group data from a caller or a broken invariant of this layer: no
    document reaches it, so it has no exit code and stays a traceback."""


class IndeterminateError(RuntimeError):
    """A result depends on a twisted-conjugacy comparison that returned Unknown."""
    exit_code = 3


# ---------------------------------------------------------------------------
# Group classes
# ---------------------------------------------------------------------------

class FreeAbelianGroup:
    """Z^n with elements stored as integer tuples."""

    kind = "free_abelian"

    def __init__(self, rank: int):
        self.rank = rank

    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def element(self, word) -> Tuple[int, ...]:
        """The element a word in the generators names: its exponent sums."""
        return _exponent_sums(self.rank, word)

    def abelianized(self, g) -> Tuple[int, ...]:
        return g

    def __repr__(self):
        return f"FreeAbelianGroup({self.rank})"


class FreeGroup:
    """Free group on ``rank`` generators; elements are reduced letter tuples."""

    kind = "free"

    def __init__(self, rank: int):
        self.rank = rank

    def identity(self):
        return ()

    def mul(self, a, b):
        """Product of two reduced words, cancelling only at the join.

        Every caller passes reduced words: elements returned by
        ``element`` (which reduces), ``mul``, ``inv`` and ``identity``, so
        homomorphism images, group-ring terms, presentation elements and
        fixed point witnesses.
        """
        return join_reduced(tuple(a), tuple(b))

    def element(self, word):
        """The element a word in the generators names: its free reduction."""
        return reduce_word(word)

    def inv(self, a):
        return invert_word(a)

    def generators(self):
        return [((i, 1),) for i in range(self.rank)]

    def abelianized(self, g) -> Tuple[int, ...]:
        return _exponent_sums(self.rank, g)

    def __repr__(self):
        return f"FreeGroup({self.rank})"


def _exponent_sums(rank: int, word) -> Tuple[int, ...]:
    """The exponent sum of each of ``rank`` generators in a word."""
    v = [0] * rank
    for gen, e in word:
        v[gen] += e
    return tuple(v)


# ---------------------------------------------------------------------------
# Homomorphisms and endomorphisms
# ---------------------------------------------------------------------------

class GroupHomomorphism:
    """Homomorphism determined by generator images."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = list(images)

    def apply(self, g):
        src, dst = self.source, self.target
        # (generator, exponent) pairs: a Z^n vector or a reduced word
        letters = enumerate(g) if src.kind == "free_abelian" else g
        out = dst.identity()
        for gen, e in letters:
            out = dst.mul(out, _power(dst, self.images[gen], e))
        return out

    def __repr__(self):
        return f"GroupHomomorphism({self.source!r} -> {self.target!r})"


def _power(group, g, e: int):
    """g^e by square-and-multiply: O(log |e|) products in any group."""
    base = g if e >= 0 else group.inv(g)
    out = group.identity()
    e = abs(e)
    while e:
        if e & 1:
            out = group.mul(out, base)
        e >>= 1
        if e:
            base = group.mul(base, base)
    return out


class GroupEndomorphism(GroupHomomorphism):
    def __init__(self, group, images):
        super().__init__(group, group, images)
        self.group = group

    def matrix(self) -> IntMatrix:
        """Matrix on abelianization; columns are generator images."""
        g = self.group
        cols = [g.abelianized(x) for x in self.images]
        return IntMatrix(g.rank, g.rank,
                         [cols[j][i] for i in range(g.rank)
                          for j in range(g.rank)])

    @cached_property
    def classifier(self) -> "_FreeAbelianClassifier":
        """Cokernel data of I - A on the abelianization, built on first use."""
        return _FreeAbelianClassifier(self.matrix())

    def is_identity(self) -> bool:
        return self.images == self.group.generators()

    def __repr__(self):
        return f"GroupEndomorphism({self.group!r})"


# ---------------------------------------------------------------------------
# Twisted conjugacy
# ---------------------------------------------------------------------------

CERTAIN = "certain"


class TwistedClass:
    """Canonical representative of a twisted conjugacy class; two certain
    classes over one endomorphism are equal exactly when their keys are."""

    __slots__ = ("key", "rep", "certainty")

    def __init__(self, key, rep, certainty):
        self.key = key
        self.rep = rep
        self.certainty = certainty  # CERTAIN or ("heuristic", depth)

    @property
    def is_certain(self) -> bool:
        return self.certainty == CERTAIN

    def __repr__(self):
        return (f"TwistedClass(key={self.key!r}, rep={self.rep!r}, "
                f"certainty={self.certainty!r})")


class _FreeAbelianClassifier:
    """Cokernel data of (I - A) used to canonicalize Z^n twisted classes.

    A is the endomorphism's matrix on the abelianization, so the same data
    gives the abelianized class key of a free-group element.
    """

    def __init__(self, a: IntMatrix):
        n = a.rows
        sf = smith_normal_form(IntMatrix.identity(n) - a)
        self.u = sf.U
        self.u_inv = sf.Uinv
        self.diag = [sf.S[i, i] for i in range(n)]
        self.n = n

    def reduce(self, g) -> Tuple[int, ...]:
        v = [sum(self.u[i, j] * g[j] for j in range(self.n)) for i in range(self.n)]
        out = []
        for x, d in zip(v, self.diag):
            out.append(x % d if d != 0 else x)
        return tuple(out)

    def rep_of(self, reduced) -> Tuple[int, ...]:
        return tuple(sum(self.u_inv[i, j] * reduced[j] for j in range(self.n))
                     for i in range(self.n))


def _twisted_moves(group: FreeGroup, endo: GroupEndomorphism):
    """The one-letter twisted conjugations g -> phi(s) * g * s^-1 as
    (phi(s), s^-1) pairs; move ``m ^ 1`` undoes move ``m``."""
    return [(endo.apply(((i, e),)), ((i, -e),))
            for i in range(group.rank) for e in (1, -1)]


def _free_orbit_walk(moves, g, depth: int):
    """Every element at most ``depth`` moves from g, depth first.

    Only walks that never undo their previous move are taken; they reach
    the whole ball, because a shortest path never does.  An element reached
    by several walks is yielded once per walk.  Memory is one stack of at
    most ``depth * len(moves)`` words, whatever the size of the ball.
    """
    stack = [(g, None, 0)]
    while stack:
        x, last, d = stack.pop()
        yield x
        if d < depth:
            for m, (s, t) in enumerate(moves):
                if last is None or m != last ^ 1:
                    stack.append((join_reduced(join_reduced(s, x), t), m,
                                  d + 1))


def _shortlex_min_in_ball(moves, g, depth: int):
    """The shortlex-least word of ``_free_orbit_walk(moves, g, depth)``
    (shorter first, then lexicographic), found by a depth-first branch
    and bound.

    One move changes the length by at most ``reach``, the longest
    |phi(s)| + |s^-1|, so every word below x at depth d is at least
    ``len(x) - (depth - d) * reach`` letters long.  When that exceeds
    the length of the best word so far, nothing below x can be shortlex
    smaller, and the branch is cut.
    """
    reach = max(len(s) + len(t) for s, t in moves)
    best, best_len = g, len(g)
    stack = [(g, None, 0)]
    while stack:
        x, last, d = stack.pop()
        n = len(x)
        if n < best_len or (n == best_len and x < best):
            best, best_len = x, n
        if d < depth and n - (depth - d) * reach <= best_len:
            for m, (s, t) in enumerate(moves):
                if last is None or m != last ^ 1:
                    stack.append((join_reduced(join_reduced(s, x), t), m,
                                  d + 1))
    return best


def twisted_class(group, endo: GroupEndomorphism, g,
                  depth: int) -> TwistedClass:
    """Canonical representative of [g] under g ~ phi(h) g h^-1, the
    relation that lifting a cell as h c instead of c applies to its
    diagonal term (``lift_map`` makes lifts phi-semilinear)."""
    if group.kind == "free_abelian" or group.rank == 1:
        cl = endo.classifier
        key = cl.reduce(group.abelianized(g))
        rep = cl.rep_of(key)
        if group.kind == "free":
            rep = _power(group, ((0, 1),), rep[0])
        return TwistedClass(key=key, rep=rep, certainty=CERTAIN)
    if endo.is_identity():
        nf = cyclic_normal_form(g)
        return TwistedClass(key=nf, rep=nf, certainty=CERTAIN)
    # bounded search with restart from each new minimum
    moves = _twisted_moves(group, endo)
    current = g
    while True:
        best = _shortlex_min_in_ball(moves, current, depth)
        if best == current:
            break
        current = best
    return TwistedClass(key=current, rep=current, certainty=("heuristic", depth))


EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"


def classes_equal(group, endo: GroupEndomorphism, g, h, depth: int) -> str:
    """Decide whether [g] = [h] for heuristic classes (free rank >= 2, phi
    not the identity; certain classes compare by key): distinct abelianized
    keys answer Distinct, meeting orbit balls Equal, and otherwise Unknown."""
    cl = endo.classifier
    if cl.reduce(group.abelianized(g)) != cl.reduce(group.abelianized(h)):
        return DISTINCT
    # The balls of g and h meet exactly when h is within 2 * depth moves.
    moves = _twisted_moves(group, endo)
    ball_g = set(_free_orbit_walk(moves, g, depth))
    if any(y in ball_g for y in _free_orbit_walk(moves, h, depth)):
        return EQUAL
    return UNKNOWN


# ---------------------------------------------------------------------------
# Group rings
# ---------------------------------------------------------------------------

def _collect(terms, key) -> Dict:
    """Sum like terms: ``{key(x): (x, total)}`` over the ``(x, c)`` pairs.

    A sum that reaches zero drops its key; a merged key keeps its first
    position and its latest ``x``.
    """
    data: Dict = {}
    for x, c in terms:
        c = int(c)
        if c == 0:
            continue
        k = key(x)
        if k in data:
            c += data[k][1]
            if c == 0:
                del data[k]
                continue
        data[k] = (x, c)
    return data


class GroupRingElement:
    """Finite formal integer combination of group elements."""

    def __init__(self, group, terms):
        self.group = group
        self.terms = _collect(terms, lambda g: g)

    @classmethod
    def of(cls, group, g, c: int = 1):
        return cls(group, [(g, c)])

    def __add__(self, other):
        return GroupRingElement(self.group,
                                list(self.terms.values()) + list(other.terms.values()))

    def __neg__(self):
        return GroupRingElement(self.group,
                                [(g, -c) for g, c in self.terms.values()])

    def apply(self, endo: GroupEndomorphism):
        return GroupRingElement(self.group,
                                [(endo.apply(g), c) for g, c in self.terms.values()])

    def augmentation(self) -> int:
        return sum(c for _, c in self.terms.values())

    def __repr__(self):
        return f"GroupRingElement({sorted(self.terms.items())})"


def add_product(acc: Dict, a: "GroupRingMatrix", b: "GroupRingMatrix",
                sign: int = 1, image: Optional[Callable] = None) -> None:
    """Add ``sign * a * b`` to ``acc``, one coefficient per
    (row, col, group element); ``image``, when given, maps the group
    elements of ``a`` first (``image(a) * b``).

    A sum of products vanishes exactly when every coefficient it leaves
    in ``acc`` is zero, so an identity between matrix products can be
    checked without building the product, negated and sum matrices.
    """
    b_rows: Dict[int, List] = {}
    for (t, c), y in b.entries.items():
        b_rows.setdefault(t, []).append((c, y.terms.values()))
    mul = a.group.mul
    for (r, t), x in a.entries.items():
        row = b_rows.get(t)
        if row is None:
            continue
        for g, u in x.terms.values():
            if image is not None:
                g = image(g)
            u *= sign
            for c, y_terms in row:
                for h, v in y_terms:
                    k = (r, c, mul(g, h))
                    acc[k] = acc.get(k, 0) + u * v


class GroupRingMatrix:
    """Sparse matrix over a group ring; square shape required only for traces.

    ``entries`` maps ``(row, col)`` to a nonzero ``GroupRingElement``; an
    absent index is a zero entry.
    """

    def __init__(self, group, rows: int, cols: int,
                 entries: Dict[Tuple[int, int], GroupRingElement]):
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries: Dict[Tuple[int, int], GroupRingElement] = {}
        for (i, j), a in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise GroupError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if a.terms:
                self.entries[i, j] = a

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise GroupError("shape mismatch")
        acc: Dict = {}
        add_product(acc, self, other)
        return GroupRingMatrix.from_terms(self.group, self.rows, other.cols,
                                          acc)

    @classmethod
    def from_terms(cls, group, rows: int, cols: int, acc: Dict):
        """The matrix whose (i, j) entry sums c g over ``acc[i, j, g] = c``."""
        cells: Dict[Tuple[int, int], list] = {}
        for (i, j, g), c in acc.items():
            cells.setdefault((i, j), []).append((g, c))
        return cls(group, rows, cols, {
            ij: GroupRingElement(group, terms) for ij, terms in cells.items()})

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise GroupError("shape mismatch")
        entries = dict(self.entries)
        for ij, b in other.entries.items():
            a = entries.get(ij)
            entries[ij] = b if a is None else a + b
        return GroupRingMatrix(self.group, self.rows, self.cols, entries)

    def __neg__(self):
        return GroupRingMatrix(self.group, self.rows, self.cols,
                               {ij: -a for ij, a in self.entries.items()})

    def apply(self, endo: GroupEndomorphism) -> "GroupRingMatrix":
        return GroupRingMatrix(self.group, self.rows, self.cols,
                               {ij: a.apply(endo) for ij, a in self.entries.items()})

    def augmented(self) -> IntMatrix:
        """Collapse g -> 1, yielding an integer matrix."""
        values = [0] * (self.rows * self.cols)
        for (i, j), a in self.entries.items():
            values[i * self.cols + j] = a.augmentation()
        return IntMatrix(self.rows, self.cols, values)

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group!r})"


# ---------------------------------------------------------------------------
# Shadow elements
# ---------------------------------------------------------------------------

class ShadowElement:
    """Integer combination of twisted conjugacy classes over (group, endo)."""

    def __init__(self, group, endo: GroupEndomorphism,
                 terms: Iterable[Tuple[TwistedClass, int]]):
        self.group = group
        self.endo = endo
        self.terms = _collect(terms, operator.attrgetter("key"))

    @classmethod
    def zero(cls, group, endo):
        return cls(group, endo, ())

    def items(self) -> List[Tuple[TwistedClass, int]]:
        return [self.terms[k] for k in sorted(self.terms.keys())]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ShadowElement") -> "ShadowElement":
        return ShadowElement(self.group, self.endo,
                             list(self.terms.values()) + list(other.terms.values()))

    def scale(self, c: int) -> "ShadowElement":
        return ShadowElement(self.group, self.endo,
                             [(cls, c * x) for cls, x in self.terms.values()])

    def __sub__(self, other):
        return self + other.scale(-1)

    @property
    def has_heuristic(self) -> bool:
        return any(not cls.is_certain for cls, _ in self.terms.values())

    def consolidated(self, depth: int) -> "ShadowElement":
        """Merge classes provably equal; raise if any comparison is Unknown.

        Terms are summed by key, and certain classes with distinct keys are
        distinct, so only heuristic classes go to ``classes_equal``.
        """
        if not self.has_heuristic:
            return self
        merged: List[Tuple[TwistedClass, int]] = []
        for cls, c in self.items():
            for i, (cls2, c2) in enumerate(merged):
                verdict = classes_equal(self.group, self.endo, cls.rep,
                                        cls2.rep, depth)
                if verdict == EQUAL:
                    merged[i] = (cls2, c2 + c)
                    break
                if verdict == UNKNOWN:
                    raise IndeterminateError(
                        "twisted class comparison returned Unknown")
            else:
                merged.append((cls, c))
        return ShadowElement(self.group, self.endo, merged)


def shadow_sum(group, endo: GroupEndomorphism, terms,
               depth: int) -> ShadowElement:
    """The sum of c [g] over the ``(g, c)`` terms.  They are summed by
    element first, and only elements with a nonzero net coefficient are
    classified: the rest would cancel in their class anyway."""
    return ShadowElement(group, endo, [
        (twisted_class(group, endo, g, depth), c)
        for g, c in _collect(terms, lambda g: g).values()])


def augment(s: ShadowElement) -> int:
    """Sum of the coefficients."""
    return sum(c for _, c in s.terms.values())


def nielsen(s: ShadowElement, depth: int) -> int:
    """Number of nonzero-coefficient classes; Indeterminate on Unknown merges."""
    return sum(1 for _, c in s.consolidated(depth).terms.values() if c != 0)


def shadow_equal(s1: ShadowElement, s2: ShadowElement, depth: int) -> str:
    """Class-by-class comparison of two shadow elements over the same data."""
    diff = s1 - s2
    try:
        diff = diff.consolidated(depth)
    except IndeterminateError:
        return UNKNOWN
    return EQUAL if diff.is_zero() else DISTINCT


def class_label(cls: TwistedClass) -> str:
    """An abelianized key ``[v0,v1]`` (``[k]`` in rank one) or a word
    ``[g0^1.g1^-1]``."""
    key = cls.key
    if all(isinstance(x, int) for x in key):
        return "[" + ",".join(str(x) for x in key) + "]"
    return "[" + ".".join(f"g{g}^{e}" for g, e in key) + "]"


def shadow_rendering(s: ShadowElement) -> List[List]:
    return [[class_label(cls), c] for cls, c in s.items()]


def pushforward(hom: GroupHomomorphism, endo_src: GroupEndomorphism,
                endo_dst: GroupEndomorphism, u,
                s: ShadowElement, depth: int) -> ShadowElement:
    """Map classes along iota: [g] -> [u * iota(g)], u the correction word.

    Requires iota(phi_src(x)) = u^-1 * phi_dst(iota(x)) * u on generators,
    read off the images of both maps; it then holds on every x, and it
    makes the map well defined: a relative g' = phi_src(h) * g * h^-1 of g
    goes to

        u * iota(g') = u * u^-1 * phi_dst(iota(h)) * u * iota(g) * iota(h)^-1
                     = phi_dst(iota(h)) * (u * iota(g)) * iota(h)^-1,

    a relative of u * iota(g) under phi_dst.
    """
    dst = hom.target
    u_inv = dst.inv(u)
    for phi_g, iota_g in zip(endo_src.images, hom.images):
        lhs = hom.apply(phi_g)
        rhs = dst.mul(dst.mul(u_inv, endo_dst.apply(iota_g)), u)
        if lhs != rhs:
            raise GroupError(
                "pushforward correction fails the intertwining check")
    terms = []
    for cls, c in s.terms.values():
        img = dst.mul(u, hom.apply(cls.rep))
        terms.append((twisted_class(dst, endo_dst, img, depth), c))
    return ShadowElement(dst, endo_dst, terms)
