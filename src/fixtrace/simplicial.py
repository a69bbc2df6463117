"""Finite simplicial complexes, simplicial maps and fundamental groups.

Vertices carry a global order (their declaration order); all orientation
signs and all spanning-tree choices derive from it, so every computation
in this module is reproducible.  Simplices are stored as strictly
increasing tuples of vertex indices.

The fundamental group of the basepoint component is presented by the
edge-path method: generators are the non-tree edges of a breadth-first
spanning tree, relators come from the 2-simplices.  A Tietze
simplification pass then eliminates generators that occur exactly once
in some relator; the result is recognized as free (no relators left),
free abelian (commutator relators covering all generator pairs), or
reported as unsupported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exactalg import ChainComplex, ChainMap, IntMatrix, hopf_chain_trace
from .grouprings import (
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    cyclic_normal_form,
    cyclic_reduce,
    invert_word,
    reduce_word,
)


class SimplicialError(ValueError):
    pass


Word = Tuple[Tuple[int, int], ...]  # letters (generator index, +-1)


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Face-closed finite simplicial complex over an ordered vertex set."""

    def __init__(self, vertices: Sequence, simplices_by_dim: Sequence[Sequence[Tuple[int, ...]]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise SimplicialError("duplicate vertices")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        cleaned = []
        seen_sets = []
        for d, simplices in enumerate(simplices_by_dim):
            level = sorted(set(tuple(s) for s in simplices))
            for s in level:
                if len(s) != d + 1:
                    raise SimplicialError(f"simplex {s} has wrong dimension")
                if any(not 0 <= i < len(self.vertices) for i in s):
                    raise SimplicialError(f"simplex {s} uses unknown vertex")
                if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                    raise SimplicialError(f"simplex {s} is not strictly increasing")
            cleaned.append(tuple(level))
            seen_sets.append(set(level))
        # face closure check
        for d in range(1, len(cleaned)):
            for s in cleaned[d]:
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face not in seen_sets[d - 1]:
                        raise SimplicialError(f"missing face {face} of {s}")
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self.simplices = tuple(cleaned)
        self._sets = [set(level) for level in self.simplices]

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def n_simplices(self, d: int) -> Tuple[Tuple[int, ...], ...]:
        if 0 <= d < len(self.simplices):
            return self.simplices[d]
        return ()

    def has_simplex(self, s: Tuple[int, ...]) -> bool:
        d = len(s) - 1
        return 0 <= d < len(self._sets) and tuple(s) in self._sets[d]

    def simplex_index(self, s: Tuple[int, ...]) -> int:
        d = len(s) - 1
        return self.simplices[d].index(tuple(s))

    def counts(self) -> Tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.simplices))

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self.n_simplices(1)

    def neighbors(self, i: int) -> List[int]:
        out = set()
        for (a, b) in self.edges():
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return sorted(out)

    def vertex_ids(self, s: Tuple[int, ...]) -> Tuple:
        return tuple(self.vertices[i] for i in s)

    def maximal_simplices(self) -> List[Tuple[int, ...]]:
        out = []
        for d, level in enumerate(self.simplices):
            higher = self._sets[d + 1] if d + 1 < len(self._sets) else set()
            for s in level:
                if not any(set(s) <= set(h) for h in higher):
                    out.append(s)
        return out

    def components(self) -> List[Tuple[int, ...]]:
        """Connected components of the 1-skeleton, as sorted index tuples."""
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.vertices))}
        for a, b in self.edges():
            adj[a].append(b)
            adj[b].append(a)
        seen: Set[int] = set()
        comps = []
        for start in range(len(self.vertices)):
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def subcomplex(self, vertex_indices: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex on a vertex subset, preserving relative order."""
        keep = sorted(set(vertex_indices))
        keep_set = set(keep)
        remap = {old: new for new, old in enumerate(keep)}
        levels = []
        for level in self.simplices:
            levels.append([tuple(remap[i] for i in s) for s in level
                           if set(s) <= keep_set])
        return SimplicialComplex([self.vertices[i] for i in keep], levels)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __repr__(self):
        return f"SimplicialComplex(counts={self.counts()})"


def build_complex(maximal_simplices: Iterable[Sequence], vertices: Optional[Sequence] = None
                  ) -> SimplicialComplex:
    """Face closure of the given maximal simplices.

    Vertex tuples are given by vertex identifiers; the global order is the
    declaration order of ``vertices`` when supplied, else sorted order.
    """
    maximal = [tuple(s) for s in maximal_simplices]
    for s in maximal:
        if len(set(s)) != len(s):
            raise SimplicialError(f"repeated vertex in simplex {s}")
    if vertices is None:
        seen = set()
        for s in maximal:
            seen.update(s)
        vertices = sorted(seen)
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    for s in maximal:
        for v in s:
            if v not in index:
                raise SimplicialError(f"vertex {v} not declared")
    by_dim: List[Set[Tuple[int, ...]]] = []
    for s in maximal:
        idx = tuple(sorted(index[v] for v in s))
        if len(set(idx)) != len(idx):
            raise SimplicialError(f"repeated vertex in simplex {s}")
        for k in range(1, len(idx) + 1):
            for face in itertools.combinations(idx, k):
                d = k - 1
                while len(by_dim) <= d:
                    by_dim.append(set())
                by_dim[d].add(face)
    return SimplicialComplex(vertices, [sorted(level) for level in by_dim])


def disjoint_union(k: SimplicialComplex, l: SimplicialComplex,
                   tags=(0, 1)) -> SimplicialComplex:
    """Disjoint union with vertices relabeled (tag, original id)."""
    verts = [(tags[0], v) for v in k.vertices] + [(tags[1], v) for v in l.vertices]
    shift = len(k.vertices)
    levels = []
    for d in range(max(k.dim, l.dim) + 1):
        level = list(k.n_simplices(d)) + [tuple(i + shift for i in s)
                                          for s in l.n_simplices(d)]
        levels.append(level)
    return SimplicialComplex(verts, levels)


# ---------------------------------------------------------------------------
# Simplicial maps
# ---------------------------------------------------------------------------

class SimplicialMap:
    """Vertex assignment carrying every simplex into a simplex."""

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_images: Dict):
        self.source = source
        self.target = target
        self.vertex_images = dict(vertex_images)
        missing = [v for v in source.vertices if v not in self.vertex_images]
        if missing:
            raise SimplicialError(f"vertex images missing for {missing}")
        for v, w in self.vertex_images.items():
            if v not in source.index:
                raise SimplicialError(f"unknown source vertex {v}")
            if w not in target.index:
                raise SimplicialError(f"unknown target vertex {w}")
        self._img_idx = [target.index[self.vertex_images[v]]
                         for v in source.vertices]
        for level in source.simplices:
            for s in level:
                img = tuple(sorted(set(self._img_idx[i] for i in s)))
                if not target.has_simplex(img):
                    raise SimplicialError(
                        f"image of simplex {source.vertex_ids(s)} "
                        f"does not span a simplex")

    def apply_index(self, i: int) -> int:
        return self._img_idx[i]

    def apply_vertex(self, v):
        return self.vertex_images[v]

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def is_identity(self) -> bool:
        return (self.is_endomorphism()
                and all(self.vertex_images[v] == v for v in self.source.vertices))

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target != self.source:
            raise SimplicialError("composition mismatch")
        images = {v: self.vertex_images[other.vertex_images[v]]
                  for v in other.source.vertices}
        return SimplicialMap(other.source, self.target, images)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap) and self.source == other.source
                and self.target == other.target
                and self.vertex_images == other.vertex_images)

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def identity_map(k: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(k, k, {v: v for v in k.vertices})


# ---------------------------------------------------------------------------
# Chain functor
# ---------------------------------------------------------------------------

def chain_complex(k: SimplicialComplex) -> ChainComplex:
    """Oriented simplicial chain complex; d[v0..vn] = sum (-1)^i (drop v_i)."""
    if not k.simplices:
        return ChainComplex([0], [])
    degrees = [len(level) for level in k.simplices]
    boundaries = []
    for d in range(1, len(k.simplices)):
        rows = degrees[d - 1]
        cols = degrees[d]
        pos = {s: i for i, s in enumerate(k.simplices[d - 1])}
        ent = [0] * (rows * cols)
        for j, s in enumerate(k.simplices[d]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                ent[pos[face] * cols + j] += (-1) ** i
        boundaries.append(IntMatrix(rows, cols, ent))
    return ChainComplex(degrees, boundaries)


def _sort_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def induced_chain_map(f: SimplicialMap) -> ChainMap:
    """Chain map of a simplicial map; degenerate images go to zero."""
    src = chain_complex(f.source)
    tgt = chain_complex(f.target)
    top = max(src.top_degree, tgt.top_degree)
    comps = []
    for d in range(top + 1):
        rows = tgt.rank(d)
        cols = src.rank(d)
        ent = [0] * (rows * cols)
        if d <= f.source.dim:
            pos = {s: i for i, s in enumerate(f.target.n_simplices(d))}
            for j, s in enumerate(f.source.n_simplices(d)):
                img = [f.apply_index(i) for i in s]
                if len(set(img)) != len(img):
                    continue
                sign = _sort_sign(img)
                ent[pos[tuple(sorted(img))] * cols + j] += sign
        comps.append(IntMatrix(rows, cols, ent))
    return ChainMap(src, tgt, comps)


def lefschetz_number(f: SimplicialMap) -> int:
    """Lefschetz number of a self-map, by the Hopf trace theorem.

    The alternating sum of chain-level traces equals the alternating sum of
    traces on rational homology; ``exactalg.lefschetz_from_homology`` is the
    homology route, kept as an independent cross-check.
    """
    if not f.is_endomorphism():
        raise SimplicialError("lefschetz_number requires a self-map")
    return hopf_chain_trace(induced_chain_map(f))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def product_complex(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """Staircase (ordered) triangulation of the product of two complexes.

    Vertices are pairs ordered lexicographically; the maximal simplices
    over a pair (sigma, tau) are the monotone staircase paths through the
    grid sigma x tau.
    """
    vertices = [(a, b) for a in k.vertices for b in l.vertices]
    maximal = []
    for s in k.maximal_simplices():
        for t in l.maximal_simplices():
            p, q = len(s) - 1, len(t) - 1
            for rights in itertools.combinations(range(p + q), p):
                path = [(0, 0)]
                i = j = 0
                for step in range(p + q):
                    if step in rights:
                        i += 1
                    else:
                        j += 1
                    path.append((i, j))
                maximal.append(tuple((k.vertices[s[a]], l.vertices[t[b]])
                                     for a, b in path))
    return build_complex(maximal, vertices=vertices)


# ---------------------------------------------------------------------------
# Fundamental group presentations
# ---------------------------------------------------------------------------

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


def _simplify_presentation(ngens: int, relators: List[Word]):
    """Tietze eliminations; returns (surviving gens, substitution, relators).

    The substitution maps every original generator to a word over the
    surviving ones.  Elimination picks, deterministically, the shortest
    relator containing some generator exactly once.
    """
    subst: Dict[int, Word] = {g: ((g, 1),) for g in range(ngens)}
    alive = set(range(ngens))
    rels = [reduce_word(r) for r in relators]

    def normalize(rels_in: List[Word]) -> List[Word]:
        seen = set()
        out = []
        for r in rels_in:
            r = cyclic_reduce(r)
            if not r:
                continue
            canon = min(cyclic_normal_form(r), cyclic_normal_form(invert_word(r)))
            if canon in seen:
                continue
            seen.add(canon)
            out.append(r)
        return out

    while True:
        rels = normalize(rels)
        candidate = None
        for ridx, r in sorted(enumerate(rels), key=lambda p: (len(p[1]), p[0])):
            counts: Dict[int, int] = {}
            for g, _ in r:
                counts[g] = counts.get(g, 0) + 1
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                candidate = (ridx, r, singles[0])
                break
        if candidate is None:
            break
        ridx, r, x = candidate
        pos = next(i for i, (g, _) in enumerate(r) if g == x)
        eps = r[pos][1]
        u = r[:pos]
        v = r[pos + 1:]
        # r = u x^eps v = 1  =>  x^eps = u^-1 v^-1
        w = reduce_word(invert_word(u) + invert_word(v))
        if eps == -1:
            w = invert_word(w)
        mapping = {x: w}
        alive.discard(x)
        rels = [r2 for i, r2 in enumerate(rels) if i != ridx]
        rels = [_substitute(r2, mapping) for r2 in rels]
        subst = {g: _substitute(s, mapping) for g, s in subst.items()}
        if any(len(r2) > _MAX_RELATOR_LENGTH for r2 in rels):
            return None  # give up; caller reports Unsupported
    return sorted(alive), subst, normalize(rels)


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
FINITE = "finite"
UNSUPPORTED = "unsupported"


@dataclass
class Pi1Presentation:
    """Edge-path presentation of pi_1 of the basepoint component."""

    complex: SimplicialComplex
    basepoint: object
    spanning_tree: Tuple[Tuple[int, int], ...]
    generators: Tuple[Tuple[int, int], ...]   # non-tree edges (index pairs)
    relators: Tuple[Word, ...]
    recognized_class: str
    rank: int
    group: object  # FreeGroup / FreeAbelianGroup, or None when unsupported
    component: Tuple[int, ...]
    _parent: Dict[int, Optional[int]] = field(repr=False, default_factory=dict)
    _gen_index: Dict[Tuple[int, int], int] = field(repr=False, default_factory=dict)
    _final_gens: List[int] = field(repr=False, default_factory=list)
    _subst: Dict[int, Word] = field(repr=False, default_factory=dict)

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

    def generator_loop(self, gen: int) -> List[Tuple[int, int]]:
        """Edge path tree(u) . (u, v) . tree(v)^-1 of the generator edge (u, v)."""
        (u, v) = self.generators[gen]
        return (self.tree_path(u) + [(u, v)]
                + [(y, x) for (x, y) in reversed(self.tree_path(v))])

    def element_of_word(self, word: Word):
        """Image of a generator word in the recognized group."""
        if self.group is None:
            raise SimplicialError("fundamental group not recognized")
        w = _substitute(word, self._subst)
        pos = {g: i for i, g in enumerate(self._final_gens)}
        letters = tuple((pos[g], e) for g, e in w)
        if self.recognized_class == FREE:
            return reduce_word(letters)
        vec = [0] * self.rank
        for g, e in letters:
            vec[g] += e
        return tuple(vec)

    def element_of_path(self, steps: Sequence[Tuple[int, int]]):
        return self.element_of_word(self.word_of_path(steps))

    @property
    def _tree_set(self):
        return set(self.spanning_tree)


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
    order = [b]
    queue = [b]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                queue.append(w)
    component = tuple(sorted(parent.keys()))
    comp_set = set(component)
    tree_edges = tuple(sorted((min(v, parent[v]), max(v, parent[v]))
                              for v in parent if parent[v] is not None))
    tree_set = set(tree_edges)
    generators = tuple(sorted(e for e in k.edges()
                              if set(e) <= comp_set and e not in tree_set))
    gen_index = {e: i for i, e in enumerate(generators)}

    def letter(a: int, b2: int) -> Word:
        e = (min(a, b2), max(a, b2))
        g = gen_index.get(e)
        if g is None:
            return ()
        return ((g, 1 if a < b2 else -1),)

    relators: List[Word] = []
    for (x, y, z) in k.n_simplices(2):
        if not {x, y, z} <= comp_set:
            continue
        w = reduce_word(letter(x, y) + letter(y, z) + invert_word(letter(x, z)))
        relators.append(w)

    simplified = _simplify_presentation(len(generators), relators)
    recognized = UNSUPPORTED
    rank = 0
    group = None
    final_gens: List[int] = []
    subst: Dict[int, Word] = {g: ((g, 1),) for g in range(len(generators))}
    if simplified is not None:
        final_gens, subst, final_rels = simplified
        n = len(final_gens)
        if not final_rels:
            recognized = FREE
            rank = n
            group = FreeGroup(n)
        else:
            pos = {g: i for i, g in enumerate(final_gens)}
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
                recognized = FREE_ABELIAN
                rank = n
                group = FreeAbelianGroup(n)

    pres = Pi1Presentation(
        complex=k,
        basepoint=basepoint,
        spanning_tree=tree_edges,
        generators=generators,
        relators=tuple(relators),
        recognized_class=recognized,
        rank=rank,
        group=group,
        component=component,
        _parent=parent,
        _gen_index=gen_index,
        _final_gens=final_gens,
        _subst=subst,
    )
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

    def image_word(word_path: Sequence[Tuple[int, int]]) -> Word:
        steps = [(f.apply_index(a), f.apply_index(bb)) for a, bb in word_path]
        return p.word_of_path(steps)

    images = []
    for g in p._final_gens:
        w = reduce_word(beta + image_word(p.generator_loop(g)) + invert_word(beta))
        images.append(p.element_of_word(w))
    return GroupEndomorphism(p.group, images)
