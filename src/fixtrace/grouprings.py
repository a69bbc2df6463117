"""Twisted conjugacy classes, group rings and shadow traces.

Three group classes are supported exactly:

* free abelian groups Z^n (elements are integer vectors),
* free groups F_k (elements are reduced words),
* finite groups given by a multiplication table.

Twisted conjugacy is the relation g ~ h * g * phi(h)^-1 for an
endomorphism phi.  For free abelian and finite groups the class of an
element has a decisive canonical representative; for free groups of rank
at least two the problem is attacked by bounded search and the results
are marked heuristic unless the endomorphism is the identity (ordinary
conjugacy, decided by cyclic words) or the rank is at most one.

A shadow element is a finite integer combination of twisted conjugacy
classes; it is the value domain of twisted traces of group-ring matrices
and of Reidemeister traces.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .exactalg import IntMatrix, smith_normal_form
from .words import (
    GroupError,
    cyclic_normal_form,
    invert_word,
    join_reduced,
    reduce_word,
)

DEFAULT_DEPTH = 8


class IndeterminateError(RuntimeError):
    """A result depends on a twisted-conjugacy comparison that returned Unknown."""


# ---------------------------------------------------------------------------
# Group classes
# ---------------------------------------------------------------------------

class FreeAbelianGroup:
    """Z^n with elements stored as integer tuples."""

    kind = "free_abelian"

    def __init__(self, rank: int):
        if rank < 0:
            raise GroupError("rank must be nonnegative")
        self.rank = rank

    def identity(self):
        return (0,) * self.rank

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == self.rank
                and all(isinstance(x, int) for x in g)):
            raise GroupError(f"not an element of Z^{self.rank}: {g!r}")
        return g

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def generators(self):
        return [tuple(1 if i == j else 0 for j in range(self.rank))
                for i in range(self.rank)]

    def abelianized(self, g) -> Tuple[int, ...]:
        return g

    def __eq__(self, other):
        return isinstance(other, FreeAbelianGroup) and other.rank == self.rank

    def __hash__(self):
        return hash(("free_abelian", self.rank))

    def __repr__(self):
        return f"FreeAbelianGroup({self.rank})"


class FreeGroup:
    """Free group on ``rank`` generators; elements are reduced letter tuples."""

    kind = "free"

    def __init__(self, rank: int):
        if rank < 0:
            raise GroupError("rank must be nonnegative")
        self.rank = rank

    def identity(self):
        return ()

    def check(self, g):
        g = reduce_word(g)
        for gen, _ in g:
            if not 0 <= gen < self.rank:
                raise GroupError(f"generator {gen} out of range")
        return g

    def mul(self, a, b):
        """Product of two reduced words, cancelling only at the join.

        Every caller passes reduced words: elements returned by ``check``,
        ``mul``, ``inv`` and ``identity``, homomorphism images, group-ring
        terms and presentation elements (``element_of_word`` reduces).
        """
        return join_reduced(tuple(a), tuple(b))

    def inv(self, a):
        return invert_word(a)

    def generators(self):
        return [((i, 1),) for i in range(self.rank)]

    def abelianized(self, g) -> Tuple[int, ...]:
        v = [0] * self.rank
        for gen, e in g:
            v[gen] += e
        return tuple(v)

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and other.rank == self.rank

    def __hash__(self):
        return hash(("free", self.rank))

    def __repr__(self):
        return f"FreeGroup({self.rank})"


class FiniteGroup:
    """Finite group from a multiplication table, verified at construction."""

    kind = "finite"

    def __init__(self, table: Sequence[Sequence[int]], identity_index: int):
        n = len(table)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = n
        self.identity_index = identity_index
        for row in self.table:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise GroupError("malformed multiplication table")
        e = identity_index
        for a in range(n):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise GroupError("identity axiom fails")
        self._inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == e and self.table[b][a] == e:
                    self._inv[a] = b
                    break
            if self._inv[a] is None:
                raise GroupError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupError("associativity fails")

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, 0)

    @classmethod
    def symmetric3(cls) -> "FiniteGroup":
        import itertools
        perms = sorted(itertools.permutations(range(3)))
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
                 for p in perms]
        return cls(table, idx[(0, 1, 2)])

    def identity(self):
        return self.identity_index

    def check(self, g):
        if not (isinstance(g, int) and 0 <= g < self.order):
            raise GroupError(f"not an element index: {g!r}")
        return g

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def generators(self):
        return list(range(self.order))

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup) and other.table == self.table
                and other.identity_index == self.identity_index)

    def __hash__(self):
        return hash(("finite", self.table, self.identity_index))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# Homomorphisms and endomorphisms
# ---------------------------------------------------------------------------

class GroupHomomorphism:
    """Homomorphism determined by generator images (finite: a total map)."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = [target.check(x) for x in images]
        if len(self.images) != len(source.generators()):
            raise GroupError("need one image per generator")
        if source.kind == "finite":
            for a in range(source.order):
                for b in range(source.order):
                    lhs = self.images[source.mul(a, b)]
                    rhs = target.mul(self.images[a], self.images[b])
                    if lhs != rhs:
                        raise GroupError("not a homomorphism")

    def apply(self, g):
        src, dst = self.source, self.target
        g = src.check(g)
        if src.kind == "finite":
            return self.images[g]
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
        if g.kind == "finite":
            raise GroupError("no abelianization matrix for finite groups")
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


def identity_endomorphism(group) -> GroupEndomorphism:
    return GroupEndomorphism(group, group.generators())


# ---------------------------------------------------------------------------
# Twisted conjugacy
# ---------------------------------------------------------------------------

CERTAIN = "certain"


class TwistedClass:
    """Canonical representative of a twisted conjugacy class; equal and
    hashed by value."""

    __slots__ = ("key", "rep", "certainty")

    def __init__(self, key, rep, certainty):
        self.key = key
        self.rep = rep
        self.certainty = certainty  # CERTAIN or ("heuristic", depth)

    @property
    def is_certain(self) -> bool:
        return self.certainty == CERTAIN

    def _value(self):
        return (self.key, self.rep, self.certainty)

    def __eq__(self, other):
        if not isinstance(other, TwistedClass):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

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


def _free_rank1_exponent(word) -> int:
    return sum(e for _, e in word)


def _twisted_moves(group: FreeGroup, endo: GroupEndomorphism):
    """The one-letter twisted conjugations g -> s * g * phi(s)^-1 as
    (s, phi(s)^-1) pairs; move ``m ^ 1`` undoes move ``m``."""
    return [(((i, e),), group.inv(endo.apply(((i, e),))))
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
    |s| + |phi(s)^-1|, so every word below x at depth d is at least
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
                  depth: int = DEFAULT_DEPTH) -> TwistedClass:
    """Canonical representative of [g] under g ~ h g phi(h)^-1."""
    g = group.check(g)
    if group.kind == "free_abelian":
        cl = endo.classifier
        reduced = cl.reduce(g)
        return TwistedClass(key=reduced, rep=cl.rep_of(reduced), certainty=CERTAIN)
    if group.kind == "finite":
        orbit = {group.mul(group.mul(h, g), group.inv(endo.apply(h)))
                 for h in range(group.order)}
        rep = min(orbit)
        return TwistedClass(key=rep, rep=rep, certainty=CERTAIN)
    # free group
    if group.rank <= 1:
        m = _free_rank1_exponent(g)
        d = _free_rank1_exponent(endo.images[0]) if group.rank == 1 else 0
        if group.rank == 0:
            return TwistedClass(key=(), rep=(), certainty=CERTAIN)
        c = 1 - d
        r = m % abs(c) if c != 0 else m
        rep = ((0, 1),) * r if r > 0 else ((0, -1),) * (-r) if r < 0 else ()
        return TwistedClass(key=r, rep=rep, certainty=CERTAIN)
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


def classes_equal(group, endo: GroupEndomorphism, g, h,
                  depth: int = DEFAULT_DEPTH) -> str:
    """Decide whether [g] = [h]; free groups of rank >= 2 may answer Unknown."""
    g = group.check(g)
    h = group.check(h)
    if group.kind in ("free_abelian", "finite") or (
            group.kind == "free" and (group.rank <= 1 or endo.is_identity())):
        a = twisted_class(group, endo, g, depth)
        b = twisted_class(group, endo, h, depth)
        return EQUAL if a.key == b.key else DISTINCT
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

    def __init__(self, group, terms=()):
        self.group = group
        self.terms = _collect(((group.check(g), c) for g, c in terms), lambda g: g)

    @classmethod
    def of(cls, group, g, c: int = 1):
        return cls(group, [(g, c)])

    def items(self):
        return [self.terms[k] for k in sorted(self.terms.keys())]

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return GroupRingElement(self.group,
                                list(self.terms.values()) + list(other.terms.values()))

    def __neg__(self):
        return GroupRingElement(self.group,
                                [(g, -c) for g, c in self.terms.values()])

    def __mul__(self, other):
        group = self.group
        out = []
        for g, c in self.terms.values():
            for h, d in other.terms.values():
                out.append((group.mul(g, h), c * d))
        return GroupRingElement(group, out)

    def apply(self, endo: GroupEndomorphism):
        return GroupRingElement(self.group,
                                [(endo.apply(g), c) for g, c in self.terms.values()])

    def augmentation(self) -> int:
        return sum(c for _, c in self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement) and self.group == other.group
                and self.terms == other.terms)

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
                 entries: Optional[Dict[Tuple[int, int], GroupRingElement]] = None):
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries: Dict[Tuple[int, int], GroupRingElement] = {}
        for (i, j), a in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise GroupError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if a.terms:
                self.entries[i, j] = a

    @classmethod
    def from_rows(cls, group, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise GroupError("rows of unequal length")
        return cls(group, r, c, {(i, j): a for i, row in enumerate(rows)
                                 for j, a in enumerate(row)})

    @classmethod
    def identity(cls, group, n):
        one = GroupRingElement.of(group, group.identity())
        return cls(group, n, n, {(i, i): one for i in range(n)})

    def __getitem__(self, ij):
        a = self.entries.get(ij)
        return GroupRingElement(self.group) if a is None else a

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise GroupError("shape mismatch")
        group = self.group
        acc: Dict = {}
        add_product(acc, self, other)
        cells: Dict[Tuple[int, int], list] = {}
        for (i, j, g), c in acc.items():
            cells.setdefault((i, j), []).append((g, c))
        return GroupRingMatrix(group, self.rows, other.cols, {
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

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix) and self.group == other.group
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group!r})"


# ---------------------------------------------------------------------------
# Shadow elements
# ---------------------------------------------------------------------------

class ShadowElement:
    """Integer combination of twisted conjugacy classes over (group, endo)."""

    def __init__(self, group, endo: GroupEndomorphism,
                 terms: Iterable[Tuple[TwistedClass, int]] = ()):
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

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    @property
    def has_heuristic(self) -> bool:
        return any(not cls.is_certain for cls, _ in self.terms.values())

    def consolidated(self, depth: int = DEFAULT_DEPTH) -> "ShadowElement":
        """Merge classes provably equal; raise if any comparison is Unknown."""
        items = self.items()
        merged: List[Tuple[TwistedClass, int]] = []
        for cls, c in items:
            placed = False
            for i, (cls2, c2) in enumerate(merged):
                verdict = (EQUAL if cls.key == cls2.key else
                           classes_equal(self.group, self.endo, cls.rep, cls2.rep,
                                         depth))
                if verdict == EQUAL:
                    merged[i] = (cls2, c2 + c)
                    placed = True
                    break
                if verdict == UNKNOWN:
                    raise IndeterminateError(
                        "twisted class comparison returned Unknown")
            if not placed:
                merged.append((cls, c))
        return ShadowElement(self.group, self.endo, merged)


def augment(s: ShadowElement) -> int:
    """Sum of the coefficients."""
    return sum(c for _, c in s.terms.values())


def nielsen(s: ShadowElement, depth: int = DEFAULT_DEPTH) -> int:
    """Number of nonzero-coefficient classes; Indeterminate on Unknown merges."""
    return sum(1 for _, c in s.consolidated(depth).terms.values() if c != 0)


def shadow_equal(s1: ShadowElement, s2: ShadowElement,
                 depth: int = DEFAULT_DEPTH) -> str:
    """Class-by-class comparison of two shadow elements over the same data."""
    if s1.group != s2.group:
        raise GroupError("shadow elements over different groups")
    diff = s1 - s2
    try:
        diff = diff.consolidated(depth)
    except IndeterminateError:
        return UNKNOWN
    return EQUAL if diff.is_zero() else DISTINCT


def class_label(cls: TwistedClass) -> str:
    """A finite or rank-1 key ``[k]``, a Z^n key ``[v0,v1]`` or a word
    ``[g0^1.g1^-1]``."""
    key = cls.key
    if isinstance(key, int):
        return f"[{key}]"
    if all(isinstance(x, int) for x in key):
        return "[" + ",".join(str(x) for x in key) + "]"
    return "[" + ".".join(f"g{g}^{e}" for g, e in key) + "]"


def shadow_rendering(s: ShadowElement) -> List[List]:
    return [[class_label(cls), c] for cls, c in s.items()]


def pushforward(hom: GroupHomomorphism, endo_src: GroupEndomorphism,
                endo_dst: GroupEndomorphism, correction,
                s: ShadowElement, depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Map classes along iota: [g] -> [iota(g) * w].

    Requires the intertwining iota(phi_src(g)) = w * phi_dst(iota(g)) * w^-1
    on generators; this is exactly the condition making the class map well
    defined.
    """
    src, dst = hom.source, hom.target
    w = dst.check(correction)
    for g in src.generators():
        lhs = hom.apply(endo_src.apply(g))
        rhs = dst.mul(dst.mul(w, endo_dst.apply(hom.apply(g))), dst.inv(w))
        if lhs != rhs:
            raise GroupError(
                "pushforward correction fails the intertwining check")
    terms = []
    for cls, c in s.terms.values():
        img = dst.mul(hom.apply(cls.rep), w)
        terms.append((twisted_class(dst, endo_dst, img, depth), c))
    return ShadowElement(dst, endo_dst, terms)
