"""Edge-path presentations of fundamental groups and induced endomorphisms.

The fundamental group of the basepoint component is presented by the
edge-path method: generators are the non-tree edges of a breadth-first
spanning tree, relators come from the 2-simplices.  A Tietze
simplification pass then eliminates generators that occur exactly once
in some relator; the result is recognized as free (no relators left),
free abelian (commutator relators covering all generator pairs), or
reported as unsupported.  Only the Reidemeister and bundle layers load
this module; homology and Lefschetz numbers never need it.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .grouprings import FreeAbelianGroup, FreeGroup, GroupEndomorphism
from .simplicial import SimplicialComplex, reverse_path
from .words import (
    cyclic_reduce,
    expand_word,
    invert_word,
    least_rotation,
    reduce_word,
)

Word = Tuple[Tuple[int, int], ...]  # letters (generator index, +-1)


def _substitute(word: Word, mapping: Dict[int, Word]) -> Word:
    return reduce_word(expand_word(word, lambda g: mapping.get(g, ((g, 1),))))


_MAX_RELATOR_LENGTH = 4096


def _single_letters(word: Word) -> List[int]:
    """Generators occurring exactly once in the word, in increasing order."""
    counts: Dict[int, int] = {}
    for g, _ in word:
        counts[g] = counts.get(g, 0) + 1
    return sorted(g for g, c in counts.items() if c == 1)


def _simplify_presentation(ngens: int, relators: List[Word]):
    """Tietze eliminations; returns (surviving gens, substitution, relators,
    (their ids, the solved ids, steps)).

    The substitution maps every original generator to a word over the
    surviving ones.  Relators are kept cyclically reduced, in input order,
    and distinct up to rotation and inversion: of two that coincide, the
    earlier one stays.  Each step takes the shortest relator containing
    some generator exactly once (the earliest among equal lengths, and its
    smallest such generator), solves it for that generator and rewrites
    only the relators that contain it.  A rewritten relator longer than
    ``_MAX_RELATOR_LENGTH`` gives up with ``None``.  Each step (j, i,
    terms, dropped) adds the sum of c w over ``terms`` (words w) times
    relator i's 2-chain to relator j's; ``dropped`` marks a duplicate j.
    """
    rels: Dict[int, Word] = {}  # id -> relator; ids follow input order
    # id -> (least rotation of r or r^-1 (r^-1 on a tie), e, k): r^e from k
    canon_of: Dict[int, Tuple[Word, int, int]] = {}
    owner: Dict[Word, int] = {}  # canonical form -> the id holding it
    holding: Dict[int, Set[int]] = defaultdict(set)  # generator -> ids
    # (length, id) of relators holding a generator exactly once; entries
    # that a later rewrite or drop made stale are skipped when popped
    heap: List[Tuple[int, int]] = []
    steps: List[tuple] = []

    def drop(i: int) -> None:
        del owner[canon_of.pop(i)[0]]
        for g, _ in rels.pop(i):
            holding[g].discard(i)

    def add(i: int, r: Word) -> None:
        c = cyclic_reduce(r)
        if len(c) < len(r):  # r (reduced) = a c a^-1: c's chain is a^-1 r's
            a = invert_word(r[:(len(r) - len(c)) // 2])
            steps.append((i, i, [(a, 1), ((), -1)], False))
        r = c
        if not r:
            return
        key = min((u[k:] + u[:k], e, k) for e, u in ((1, r), (-1, invert_word(r)))
                  for k in (least_rotation(u),))
        j = owner.get(key[0])
        if j is not None:
            # the later of the two, d, is dropped: its word is the other's
            # word t to the power e, rotated past a prefix a, so d's Fox
            # derivatives are e a^-1 times t's; e and a follow from where
            # the two words' least rotations start
            (d, (_, ed, kd)), (keep, (_, et, kt)) = sorted(
                [(i, key), (j, canon_of[j])], reverse=True)
            t = rels[j] if keep == j else r
            e = ed * et
            a = (t if e == 1 else invert_word(t))[:ed * (kt - kd) % len(t)]
            steps.append((d, keep, [(invert_word(a), -e)], True))
            if j < i:
                return
            drop(j)
        rels[i], canon_of[i], owner[key[0]] = r, key, i
        for g, _ in r:
            holding[g].add(i)
        if _single_letters(r):
            heapq.heappush(heap, (len(r), i))

    for i, r in enumerate(relators):
        add(i, r)
    eliminated: List[Tuple[int, Word, int]] = []
    while heap:
        n, i = heapq.heappop(heap)
        r = rels.get(i)
        singles = _single_letters(r) if r is not None and len(r) == n else ()
        if not singles:
            continue
        x = singles[0]
        pos = next(p for p, (g, _) in enumerate(r) if g == x)
        eps = r[pos][1]
        # r = u x^eps v = 1  =>  x^eps = u^-1 v^-1
        w = reduce_word(invert_word(r[:pos]) + invert_word(r[pos + 1:]))
        if eps == -1:
            w = invert_word(w)
        drop(i)
        touched = sorted(holding.pop(x, ()))
        rewritten = [(j, _substitute(rels[j], {x: w})) for j in touched]
        lengths = [len(r2) for _, r2 in rewritten]
        if not eliminated:
            # A relator is measured whenever it is rewritten, so one that
            # never is keeps its input length: only the first step sees it.
            lengths += [len(r2) for j, r2 in rels.items() if j not in touched]
        if max(lengths, default=0) > _MAX_RELATOR_LENGTH:
            return None  # give up; caller reports Unsupported
        eliminated.append((x, w, i))
        # dr/dx = eps u^-1 is a unit: q's chain loses (dq/dx) eps u r's
        u = invert_word(r[:pos + (eps < 0)])
        for j in touched:
            steps.append((j, i, [(rels[j][:p + (f < 0)] + u, -f * eps)
                                 for p, (g, f) in enumerate(rels[j])
                                 if g == x], False))
            drop(j)
        for j, r2 in rewritten:
            add(j, r2)
    # Back-substitution: each word only holds generators eliminated later.
    final: Dict[int, Word] = {}
    for x, w, _ in reversed(eliminated):
        final[x] = _substitute(w, final)
    subst = {g: final.get(g, ((g, 1),)) for g in range(ngens)}
    alive = sorted(set(range(ngens)) - set(final))
    ids = sorted(rels)
    return alive, subst, [rels[i] for i in ids], (
        ids, {i for *_, i in eliminated}, steps)


def _is_commutator_pattern(word: Word) -> Optional[Tuple[int, int]]:
    """Detect words cyclically of the form x^a y^b x^-a y^-b with a,b = +-1."""
    w = cyclic_reduce(word)
    if len(w) != 4:
        return None
    (g0, e0), (g1, e1), (g2, e2), (g3, e3) = w
    if g0 == g2 and g1 == g3 and g0 != g1 and e0 == -e2 and e1 == -e3:
        return tuple(sorted((g0, g1)))
    return None


class Pi1Presentation:
    """Edge-path presentation of pi_1 of the basepoint component.

    Built unrecognized from the breadth-first tree's ``parent`` map by
    :func:`pi1_presentation`, which then fills in the group once the
    relators simplify.  The generators are the non-tree edges of the
    basepoint component, as sorted index pairs.
    """

    __slots__ = ("complex", "basepoint", "generators", "surviving", "group",
                 "component", "relators", "record", "parent", "_gen_index",
                 "_letters")

    def __init__(self, complex: SimplicialComplex, basepoint,
                 parent: Dict[int, Optional[int]]):
        self.complex = complex
        self.basepoint = basepoint
        self.component = tuple(sorted(parent))
        self.group = None  # FreeGroup / FreeAbelianGroup once recognized
        self.parent = parent  # the tree, in breadth-first order
        tree = {(min(v, u), max(v, u))
                for v, u in parent.items() if u is not None}
        self.generators = tuple(
            e for e in complex.edges()
            if e[0] in parent and e[1] in parent and e not in tree)
        self._gen_index = {e: i for i, e in enumerate(self.generators)}
        # the generators Tietze elimination keeps, in increasing order
        self.surviving: List[int] = []
        # each edge generator spelled in the surviving generators' positions;
        # once simplified, the relators by id spelled so too and the
        # (solved ids, steps) record of ``_simplify_presentation``
        self._letters: Tuple[Word, ...] = ()

    # -- paths and words -------------------------------------------------

    def tree_path(self, vertex_index: int) -> List[Tuple[int, int]]:
        """Oriented edge steps from the basepoint to the given vertex."""
        steps = []
        v = vertex_index
        while self.parent[v] is not None:
            steps.append((self.parent[v], v))
            v = self.parent[v]
        steps.reverse()
        return steps

    def letter_of_step(self, a: int, b: int) -> Word:
        """Contracted letter of traversing edge a -> b (empty for tree edges);
        a == b or (a, b) is an edge of the basepoint component."""
        g = self._gen_index.get((min(a, b), max(a, b)))
        return () if g is None else ((g, 1 if a < b else -1),)

    def word_of_path(self, steps: Sequence[Tuple[int, int]]) -> Word:
        out: List[Tuple[int, int]] = []
        for a, b in steps:
            out.extend(self.letter_of_step(a, b))
        return reduce_word(out)

    def generator_loop(self, gen: int) -> List[Tuple[int, int]]:
        """Edge path tree(u) . (u, v) . tree(v)^-1 of the generator edge (u, v)."""
        (u, v) = self.generators[gen]
        return self.tree_path(u) + [(u, v)] + reverse_path(self.tree_path(v))

    def spelled(self, word: Word) -> Word:
        """A generator word spelled in the surviving generators' positions."""
        return reduce_word(expand_word(word, self._letters.__getitem__))

    def element_of_word(self, word: Word):
        """Image of a generator word in the recognized group, read from each
        edge generator's spelling in the surviving ones (fixed once)."""
        return self.group.element(expand_word(word, self._letters.__getitem__))

    def element_of_path(self, steps: Sequence[Tuple[int, int]]):
        return self.element_of_word(self.word_of_path(steps))


def pi1_presentation(k: SimplicialComplex, basepoint) -> Pi1Presentation:
    """Edge-path presentation with a breadth-first spanning tree.

    The tree is grown from the basepoint visiting neighbors in vertex
    order, so the presentation is deterministic.
    """
    b = k.index[basepoint]
    adj: Dict[int, List[int]] = {i: [] for i in range(len(k.vertices))}
    for (x, y) in k.edges():
        adj[x].append(y)
        adj[y].append(x)
    for i in adj:
        adj[i].sort()
    parent: Dict[int, Optional[int]] = {b: None}
    queue = deque([b])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    # Unrecognized until its own edge letters give the relators and they
    # simplify below.
    pres = Pi1Presentation(k, basepoint, parent)
    generators = pres.generators
    # each 2-simplex's boundary loop a -> b -> c -> a
    relators = [pres.word_of_path(((a, b), (b, c), (c, a)))
                for a, b, c in k.n_simplices(2)
                if all(v in parent for v in (a, b, c))]
    simplified = _simplify_presentation(len(generators), relators)
    if simplified is not None:
        final_gens, subst, final_rels, (ids, solved, steps) = simplified
        n = len(final_gens)
        pos = {g: i for i, g in enumerate(final_gens)}
        pres.surviving = final_gens
        pres._letters = tuple(tuple((pos[h], e) for h, e in subst[g])
                              for g in range(len(generators)))
        pres.relators = {i: tuple((pos[g], e) for g, e in r)
                         for i, r in zip(ids, final_rels)}
        pres.record = (solved, steps)
        if not final_rels:
            pres.group = FreeGroup(n)
        else:
            ok = True
            pairs_needed = {tuple(sorted((i, j)))
                            for i in range(n) for j in range(i + 1, n)}
            pairs_found = set()
            for r in pres.relators.values():
                vec = [0] * n
                for g, e in r:
                    vec[g] += e
                if any(vec):
                    ok = False
                    break
                pat = _is_commutator_pattern(r)
                if pat is not None:
                    pairs_found.add(pat)
            if ok and n >= 2 and pairs_found >= pairs_needed:
                pres.group = FreeAbelianGroup(n)
    return pres


def induced_pi1_endo(group, beta: Word,
                     words: Sequence[Word]) -> GroupEndomorphism:
    """Endomorphism g -> beta . f(g) . beta^-1 of ``group``, for ``words``
    the image words of its generators' loops and ``beta`` the basepath's
    word, all in its generators; ``lift_low_degrees`` is its one caller."""
    return GroupEndomorphism(group, [
        group.element(beta + w + invert_word(beta)) for w in words])
