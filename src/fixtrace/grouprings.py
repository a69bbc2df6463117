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
classes; it is the value domain of Hattori-Stallings style traces of
group-ring matrices and of Reidemeister traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exactalg import IntMatrix, smith_normal_form

DEFAULT_DEPTH = 8


class GroupError(ValueError):
    pass


class IndeterminateError(RuntimeError):
    """A result depends on a twisted-conjugacy comparison that returned Unknown."""


class UnsupportedGroupError(GroupError):
    pass


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

    def key(self, g):
        return g

    def __eq__(self, other):
        return isinstance(other, FreeAbelianGroup) and other.rank == self.rank

    def __hash__(self):
        return hash(("free_abelian", self.rank))

    def __repr__(self):
        return f"FreeAbelianGroup({self.rank})"


def reduce_word(letters: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Freely reduce a word given as (generator, +-1) letters."""
    out: List[Tuple[int, int]] = []
    for g, e in letters:
        if e not in (1, -1):
            raise GroupError("letter exponents must be +-1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def invert_word(word) -> Tuple[Tuple[int, int], ...]:
    return tuple((g, -e) for g, e in reversed(word))


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
        return reduce_word(tuple(a) + tuple(b))

    def inv(self, a):
        return invert_word(a)

    def generators(self):
        return [((i, 1),) for i in range(self.rank)]

    def key(self, g):
        return g

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

    def key(self, g):
        return g

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
        if source.kind == "finite":
            images = [target.check(x) for x in images]
            if len(images) != source.order:
                raise GroupError("finite homomorphism needs a total map")
            for a in range(source.order):
                for b in range(source.order):
                    lhs = images[source.mul(a, b)]
                    rhs = target.mul(images[a], images[b])
                    if lhs != rhs:
                        raise GroupError("not a homomorphism")
        else:
            images = [target.check(x) for x in images]
            if len(images) != source.rank:
                raise GroupError("need one image per generator")
        self.images = list(images)

    def apply(self, g):
        src, dst = self.source, self.target
        if src.kind == "finite":
            return self.images[src.check(g)]
        if src.kind == "free_abelian":
            out = dst.identity()
            for i, e in enumerate(src.check(g)):
                out = dst.mul(out, _power(dst, self.images[i], e))
            return out
        out = dst.identity()
        for gen, e in src.check(g):
            out = dst.mul(out, _power(dst, self.images[gen], e))
        return out

    def __repr__(self):
        return f"GroupHomomorphism({self.source!r} -> {self.target!r})"


def _power(group, g, e: int):
    if e == 0:
        return group.identity()
    base = g if e > 0 else group.inv(g)
    out = group.identity()
    for _ in range(abs(e)):
        out = group.mul(out, base)
    return out


class GroupEndomorphism(GroupHomomorphism):
    def __init__(self, group, images):
        super().__init__(group, group, images)
        self.group = group

    def matrix(self) -> IntMatrix:
        """Matrix on abelianization; columns are generator images."""
        g = self.group
        if g.kind == "free_abelian":
            cols = [self.images[j] for j in range(g.rank)]
            return IntMatrix(g.rank, g.rank,
                             [cols[j][i] for i in range(g.rank)
                              for j in range(g.rank)])
        if g.kind == "free":
            cols = [g.abelianized(self.images[j]) for j in range(g.rank)]
            return IntMatrix(g.rank, g.rank,
                             [cols[j][i] for i in range(g.rank)
                              for j in range(g.rank)])
        raise GroupError("no abelianization matrix for finite groups")

    def is_identity(self) -> bool:
        g = self.group
        if g.kind == "finite":
            return all(self.images[a] == a for a in range(g.order))
        gens = g.generators()
        return all(self.images[i] == gens[i] for i in range(len(gens)))

    def __repr__(self):
        return f"GroupEndomorphism({self.group!r})"


def identity_endomorphism(group) -> GroupEndomorphism:
    if group.kind == "finite":
        return GroupEndomorphism(group, list(range(group.order)))
    return GroupEndomorphism(group, group.generators())


# ---------------------------------------------------------------------------
# Twisted conjugacy
# ---------------------------------------------------------------------------

CERTAIN = "certain"


@dataclass(frozen=True)
class TwistedClass:
    """Canonical representative of a twisted conjugacy class."""

    key: object
    rep: object
    certainty: object  # CERTAIN or ("heuristic", depth)

    @property
    def is_certain(self) -> bool:
        return self.certainty == CERTAIN


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

    def class_count(self) -> Optional[int]:
        """Number of classes, or None if infinite."""
        if any(d == 0 for d in self.diag):
            return None
        out = 1
        for d in self.diag:
            out *= d
        return out

    def enumerate_reps(self) -> List[Tuple[int, ...]]:
        if self.class_count() is None:
            raise GroupError("infinitely many twisted classes")
        import itertools
        reps = []
        for combo in itertools.product(*[range(d) for d in self.diag]):
            reps.append(self.rep_of(tuple(combo)))
        return reps


_FA_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_FA_CACHE_SIZE)
def _classifier_of_matrix(a: IntMatrix) -> _FreeAbelianClassifier:
    return _FreeAbelianClassifier(a)


def _fa_classifier(endo: GroupEndomorphism) -> _FreeAbelianClassifier:
    """Classifier of the endomorphism, memoized on its abelianization matrix
    (the rank and the abelianized generator images)."""
    return _classifier_of_matrix(endo.matrix())


def cyclic_reduce(word):
    """Free reduction, then strip letters cancelling around the cycle."""
    w = list(reduce_word(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def cyclic_normal_form(word):
    """Shortlex-minimal cyclic rotation of the cyclic reduction."""
    w = cyclic_reduce(word)
    if not w:
        return ()
    return min(w[i:] + w[:i] for i in range(len(w)))


def _free_rank1_exponent(word) -> int:
    return sum(e for _, e in word)


def _twisted_neighbors(group: FreeGroup, endo: GroupEndomorphism, g):
    """One-letter twisted conjugations s * g * phi(s)^-1."""
    for i in range(group.rank):
        for e in (1, -1):
            s = ((i, e),)
            yield group.mul(group.mul(s, g), group.inv(endo.apply(s)))


def _free_orbit_ball(group, endo, g, depth: int):
    seen = {g}
    frontier = [g]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for y in _twisted_neighbors(group, endo, x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return seen


def _shortlex_key(word):
    return (len(word), word)


def twisted_class(group, endo: GroupEndomorphism, g,
                  depth: int = DEFAULT_DEPTH) -> TwistedClass:
    """Canonical representative of [g] under g ~ h g phi(h)^-1."""
    g = group.check(g)
    if group.kind == "free_abelian":
        cl = _fa_classifier(endo)
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
    current = g
    while True:
        ball = _free_orbit_ball(group, endo, current, depth)
        best = min(ball, key=_shortlex_key)
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
    cl = _fa_classifier(endo)
    if cl.reduce(group.abelianized(g)) != cl.reduce(group.abelianized(h)):
        return DISTINCT
    ball_g = _free_orbit_ball(group, endo, g, depth)
    if h in ball_g:
        return EQUAL
    ball_h = _free_orbit_ball(group, endo, h, depth)
    if g in ball_h or (ball_g & ball_h):
        return EQUAL
    return UNKNOWN


# ---------------------------------------------------------------------------
# Group rings
# ---------------------------------------------------------------------------

class GroupRingElement:
    """Finite formal integer combination of group elements."""

    def __init__(self, group, terms=()):
        self.group = group
        data: Dict[object, Tuple[object, int]] = {}
        for g, c in terms:
            g = group.check(g)
            c = int(c)
            if c == 0:
                continue
            k = group.key(g)
            if k in data:
                c2 = data[k][1] + c
                if c2 == 0:
                    del data[k]
                else:
                    data[k] = (g, c2)
            else:
                data[k] = (g, c)
        self.terms = data

    @classmethod
    def zero(cls, group):
        return cls(group, ())

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

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return GroupRingElement(self.group,
                                [(g, c * x) for g, x in self.terms.values()])

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


class GroupRingMatrix:
    """Matrix over a group ring; square shape required only for traces."""

    def __init__(self, group, rows: int, cols: int,
                 entries: Optional[Sequence[GroupRingElement]] = None):
        self.group = group
        self.rows = rows
        self.cols = cols
        if entries is None:
            entries = [GroupRingElement.zero(group) for _ in range(rows * cols)]
        entries = list(entries)
        if len(entries) != rows * cols:
            raise GroupError("entry count mismatch")
        self.entries = entries

    @classmethod
    def from_rows(cls, group, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(group, r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, group, n):
        e = group.identity()
        ent = []
        for i in range(n):
            for j in range(n):
                ent.append(GroupRingElement.of(group, e) if i == j
                           else GroupRingElement.zero(group))
        return cls(group, n, n, ent)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __mul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise GroupError("shape mismatch")
        group = self.group
        # sparse accumulation: visit only nonzero entry pairs
        other_rows: List[List[Tuple[int, GroupRingElement]]] = []
        for t in range(other.rows):
            row = []
            for j in range(other.cols):
                e = other[t, j]
                if e.terms:
                    row.append((j, e))
            other_rows.append(row)
        out = [[] for _ in range(self.rows * other.cols)]
        for i in range(self.rows):
            for t in range(self.cols):
                a = self[i, t]
                if not a.terms:
                    continue
                for j, b in other_rows[t]:
                    cell = out[i * other.cols + j]
                    for g, c in a.terms.values():
                        for h, d in b.terms.values():
                            cell.append((group.mul(g, h), c * d))
        entries = [GroupRingElement(group, terms) for terms in out]
        return GroupRingMatrix(self.group, self.rows, other.cols, entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise GroupError("shape mismatch")
        return GroupRingMatrix(self.group, self.rows, self.cols,
                               [a + b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return GroupRingMatrix(self.group, self.rows, self.cols,
                               [-a for a in self.entries])

    def apply(self, endo: GroupEndomorphism) -> "GroupRingMatrix":
        return GroupRingMatrix(self.group, self.rows, self.cols,
                               [a.apply(endo) for a in self.entries])

    def augmented(self) -> IntMatrix:
        """Collapse g -> 1, yielding an integer matrix."""
        return IntMatrix(self.rows, self.cols,
                         [a.augmentation() for a in self.entries])

    def is_zero(self):
        return all(a.is_zero() for a in self.entries)

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix) and self.group == other.group
                and self.rows == other.rows and self.cols == other.cols
                and all(a == b for a, b in zip(self.entries, other.entries)))

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
        data: Dict[object, Tuple[TwistedClass, int]] = {}
        for cls, c in terms:
            c = int(c)
            if c == 0:
                continue
            if cls.key in data:
                c2 = data[cls.key][1] + c
                if c2 == 0:
                    del data[cls.key]
                else:
                    data[cls.key] = (cls, c2)
            else:
                data[cls.key] = (cls, c)
        self.terms = data

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


def twisted_hs_trace(m: GroupRingMatrix, endo: GroupEndomorphism,
                     depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Project the diagonal of a square group-ring matrix to twisted classes."""
    if m.rows != m.cols:
        raise GroupError("trace of non-square matrix")
    terms = []
    for i in range(m.rows):
        for g, c in m[i, i].items():
            terms.append((twisted_class(m.group, endo, g, depth), c))
    return ShadowElement(m.group, endo, terms)


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
    gens = src.generators() if src.kind != "finite" else list(range(src.order))
    for g in gens:
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
