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
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .grouprings import FreeAbelianGroup, FreeGroup, GroupEndomorphism
from .simplicial import (
    SimplicialComplex,
    SimplicialError,
    SimplicialMap,
    reverse_path,
)
from .words import cyclic_normal_form, cyclic_reduce, invert_word, reduce_word

Word = Tuple[Tuple[int, int], ...]  # letters (generator index, +-1)


def _substitute(word: Word, mapping: Dict[int, Word]) -> Word:
    out: List[Tuple[int, int]] = []
    for g, e in word:
        rep = mapping.get(g)
        if rep is None:
            out.append((g, e))
        else:
            out.extend(rep if e == 1 else invert_word(rep))
    return reduce_word(out)


_MAX_RELATOR_LENGTH = 4096


def _single_letters(word: Word) -> List[int]:
    """Generators occurring exactly once in the word, in increasing order."""
    counts: Dict[int, int] = {}
    for g, _ in word:
        counts[g] = counts.get(g, 0) + 1
    return sorted(g for g, c in counts.items() if c == 1)


def _simplify_presentation(ngens: int, relators: List[Word]):
    """Tietze eliminations; returns (surviving gens, substitution, relators).

    The substitution maps every original generator to a word over the
    surviving ones.  Relators are kept cyclically reduced, in input order,
    and distinct up to rotation and inversion: of two that coincide, the
    earlier one stays.  Each step takes the shortest relator containing
    some generator exactly once (the earliest among equal lengths, and its
    smallest such generator), solves it for that generator and rewrites
    only the relators that contain it.  A rewritten relator longer than
    ``_MAX_RELATOR_LENGTH`` gives up with ``None``.
    """
    rels: Dict[int, Word] = {}  # id -> relator; ids follow input order
    canon_of: Dict[int, Word] = {}
    owner: Dict[Word, int] = {}  # canonical form -> the id holding it
    holding: Dict[int, Set[int]] = defaultdict(set)  # generator -> ids
    # (length, id) of relators holding a generator exactly once; entries
    # that a later rewrite or drop made stale are skipped when popped
    heap: List[Tuple[int, int]] = []

    def drop(i: int) -> None:
        del owner[canon_of.pop(i)]
        for g, _ in rels.pop(i):
            holding[g].discard(i)

    def add(i: int, r: Word) -> None:
        r = cyclic_reduce(r)
        if not r:
            return
        canon = min(cyclic_normal_form(r), cyclic_normal_form(invert_word(r)))
        j = owner.get(canon)
        if j is not None:
            if j < i:
                return
            drop(j)
        rels[i], canon_of[i], owner[canon] = r, canon, i
        for g, _ in r:
            holding[g].add(i)
        if _single_letters(r):
            heapq.heappush(heap, (len(r), i))

    for i, r in enumerate(relators):
        add(i, r)
    eliminated: List[Tuple[int, Word]] = []
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
        eliminated.append((x, w))
        for j in touched:
            drop(j)
        for j, r2 in rewritten:
            add(j, r2)
    # Back-substitution: each word only holds generators eliminated later.
    final: Dict[int, Word] = {}
    for x, w in reversed(eliminated):
        final[x] = _substitute(w, final)
    subst = {g: final.get(g, ((g, 1),)) for g in range(ngens)}
    alive = sorted(set(range(ngens)) - set(final))
    return alive, subst, [rels[i] for i in sorted(rels)]


def _is_commutator_pattern(word: Word) -> Optional[Tuple[int, int]]:
    """Detect words cyclically of the form x^a y^b x^-a y^-b with a,b = +-1."""
    w = cyclic_reduce(word)
    if len(w) != 4:
        return None
    (g0, e0), (g1, e1), (g2, e2), (g3, e3) = w
    if g0 == g2 and g1 == g3 and g0 != g1 and e0 == -e2 and e1 == -e3:
        return tuple(sorted((g0, g1)))
    return None


FREE = "free"
FREE_ABELIAN = "free_abelian"
UNSUPPORTED = "unsupported"


class Pi1Presentation:
    """Edge-path presentation of pi_1 of the basepoint component.

    Built unrecognized by :func:`pi1_presentation`, which then fills in
    the recognized class, rank and group once the relators simplify.
    """

    __slots__ = ("complex", "basepoint", "spanning_tree", "generators",
                 "recognized_class", "rank", "group", "component",
                 "_parent", "_gen_index", "_tree_set", "_final_gens",
                 "_final_pos", "_subst")

    def __init__(self, complex: SimplicialComplex, basepoint,
                 spanning_tree: Tuple[Tuple[int, int], ...],
                 generators: Tuple[Tuple[int, int], ...],
                 component: Tuple[int, ...],
                 parent: Dict[int, Optional[int]]):
        self.complex = complex
        self.basepoint = basepoint
        self.spanning_tree = spanning_tree
        self.generators = generators   # non-tree edges (index pairs)
        self.component = component
        self.recognized_class = UNSUPPORTED
        self.rank = 0
        self.group = None  # FreeGroup / FreeAbelianGroup once recognized
        self._parent = parent
        self._gen_index = {e: i for i, e in enumerate(generators)}
        self._tree_set = set(spanning_tree)
        self._final_gens: List[int] = []
        self._final_pos: Dict[int, int] = {}
        self._subst: Dict[int, Word] = {
            g: ((g, 1),) for g in range(len(generators))}

    # -- paths and words -------------------------------------------------

    def tree_path(self, vertex_index: int) -> List[Tuple[int, int]]:
        """Oriented edge steps from the basepoint to the given vertex."""
        steps = []
        v = vertex_index
        while self._parent[v] is not None:
            steps.append((self._parent[v], v))
            v = self._parent[v]
        steps.reverse()
        return steps

    def letter_of_step(self, a: int, b: int) -> Word:
        """Contracted letter of traversing edge a -> b (empty for tree edges)."""
        if a == b:
            return ()
        e = (min(a, b), max(a, b))
        g = self._gen_index.get(e)
        if g is None:
            if e not in self._tree_set:
                raise SimplicialError(f"{e} is not an edge of the complex")
            return ()
        return ((g, 1 if a < b else -1),)

    def word_of_path(self, steps: Sequence[Tuple[int, int]]) -> Word:
        out: List[Tuple[int, int]] = []
        for a, b in steps:
            out.extend(self.letter_of_step(a, b))
        return reduce_word(out)

    def relator(self, simplex: Tuple[int, int, int]) -> Word:
        """Word of the boundary loop a -> b -> c -> a of a 2-simplex."""
        a, b, c = simplex
        return self.word_of_path(((a, b), (b, c), (c, a)))

    def generator_loop(self, gen: int) -> List[Tuple[int, int]]:
        """Edge path tree(u) . (u, v) . tree(v)^-1 of the generator edge (u, v)."""
        (u, v) = self.generators[gen]
        return self.tree_path(u) + [(u, v)] + reverse_path(self.tree_path(v))

    def element_of_word(self, word: Word):
        """Image of a generator word in the recognized group."""
        if self.group is None:
            raise SimplicialError("fundamental group not recognized")
        w = _substitute(word, self._subst)
        letters = tuple((self._final_pos[g], e) for g, e in w)
        if self.recognized_class == FREE:
            return reduce_word(letters)
        vec = [0] * self.rank
        for g, e in letters:
            vec[g] += e
        return tuple(vec)

    def element_of_path(self, steps: Sequence[Tuple[int, int]]):
        return self.element_of_word(self.word_of_path(steps))


def pi1_presentation(k: SimplicialComplex, basepoint) -> Pi1Presentation:
    """Edge-path presentation with a breadth-first spanning tree.

    The tree is grown from the basepoint visiting neighbors in vertex
    order, so the presentation is deterministic.
    """
    if basepoint not in k.index:
        raise SimplicialError(f"unknown basepoint {basepoint}")
    b = k.index[basepoint]
    adj: Dict[int, List[int]] = {i: [] for i in range(len(k.vertices))}
    for (x, y) in k.edges():
        adj[x].append(y)
        adj[y].append(x)
    for i in adj:
        adj[i].sort()
    parent: Dict[int, Optional[int]] = {b: None}
    queue = [b]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    component = tuple(sorted(parent.keys()))
    comp_set = set(component)
    tree_edges = tuple(sorted((min(v, parent[v]), max(v, parent[v]))
                              for v in parent if parent[v] is not None))
    tree_set = set(tree_edges)
    generators = tuple(sorted(e for e in k.edges()
                              if set(e) <= comp_set and e not in tree_set))
    # Unrecognized until its own edge letters give the relators and they
    # simplify below.
    pres = Pi1Presentation(k, basepoint, tree_edges, generators, component,
                           parent)
    relators = [pres.relator(s) for s in k.n_simplices(2)
                if set(s) <= comp_set]
    simplified = _simplify_presentation(len(generators), relators)
    if simplified is not None:
        final_gens, subst, final_rels = simplified
        n = len(final_gens)
        pos = {g: i for i, g in enumerate(final_gens)}
        pres._final_gens, pres._final_pos, pres._subst = final_gens, pos, subst
        if not final_rels:
            pres.recognized_class, pres.rank = FREE, n
            pres.group = FreeGroup(n)
        else:
            ok = True
            pairs_needed = {tuple(sorted((i, j)))
                            for i in range(n) for j in range(i + 1, n)}
            pairs_found = set()
            for r in final_rels:
                vec = [0] * n
                for g, e in r:
                    vec[pos[g]] += e
                if any(vec):
                    ok = False
                    break
                pat = _is_commutator_pattern(tuple((pos[g], e) for g, e in r))
                if pat is not None:
                    pairs_found.add(pat)
            if ok and n >= 2 and pairs_found >= pairs_needed:
                pres.recognized_class, pres.rank = FREE_ABELIAN, n
                pres.group = FreeAbelianGroup(n)
    return pres


def validate_edge_path(k: SimplicialComplex, steps: Sequence[Tuple[int, int]],
                       start: int, end: Optional[int] = None) -> None:
    cur = start
    for a, b in steps:
        if a != cur:
            raise SimplicialError("edge path is not connected")
        if a != b and not k.has_simplex((min(a, b), max(a, b))):
            raise SimplicialError(f"({a},{b}) is not an edge")
        cur = b
    if end is not None and cur != end:
        raise SimplicialError("edge path ends at the wrong vertex")


def induced_pi1_endo(f: SimplicialMap, p: Pi1Presentation,
                     basepath: Sequence[Tuple[int, int]] = ()) -> GroupEndomorphism:
    """Endomorphism g -> basepath . f(g) . basepath^-1 in the recognized group.

    ``basepath`` is an edge path (as oriented vertex-index steps) from the
    basepoint to its image; the empty path is accepted when f fixes the
    basepoint.
    """
    if not f.is_endomorphism() or f.source != p.complex:
        raise SimplicialError("map and presentation do not match")
    if p.group is None:
        raise SimplicialError("fundamental group not recognized")
    b = p.complex.index[p.basepoint]
    fb = f.apply_index(b)
    basepath = [tuple(s) for s in basepath]
    validate_edge_path(p.complex, basepath, b, fb)
    beta = p.word_of_path(basepath)
    images = []
    for g in p._final_gens:
        w = p.word_of_path(f.map_path(p.generator_loop(g)))
        images.append(p.element_of_word(reduce_word(beta + w + invert_word(beta))))
    return GroupEndomorphism(p.group, images)
