"""Finite simplicial complexes, simplicial maps and their chains.

Vertices carry a global order (their declaration order); all orientation
signs and all spanning-tree choices derive from it, so every computation
in this module is reproducible.  Simplices are stored as strictly
increasing tuples of vertex indices.

Fundamental-group presentations and the endomorphisms a map induces on
them live in ``presentations``, which only the Reidemeister and bundle
layers load.  ``pi1_presentation`` and ``induced_pi1_endo`` stay
reachable here, loading that module on first access (PEP 562), because
``bench/tracer.py`` names them ``simplicial:pi1_presentation`` and
``simplicial:induced_pi1_endo``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .exactalg import ChainComplex, ChainMap, IntMatrix, hopf_chain_trace


class SimplicialError(ValueError):
    pass


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

    @cached_property
    def chains(self) -> ChainComplex:
        """Oriented chain complex, built on first use and then shared."""
        return chain_complex(self)

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

    def vertex_ids(self, s: Tuple[int, ...]) -> Tuple:
        return tuple(self.vertices[i] for i in s)

    def maximal_simplices(self) -> List[Tuple[int, ...]]:
        """Simplices that are no face of another, by dimension, then in order.

        In a face-closed complex a d-simplex lies in another simplex exactly
        when it is a codimension-1 face of some (d+1)-simplex.
        """
        out = []
        for d, level in enumerate(self.simplices):
            faces = {h[:i] + h[i + 1:] for h in self.n_simplices(d + 1)
                     for i in range(d + 2)}
            out.extend(s for s in level if s not in faces)
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

    def map_path(self, steps: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Image of an edge path given as (source index, target index) steps."""
        img = self._img_idx
        return [(img[a], img[b]) for a, b in steps]

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


def reverse_path(steps: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The edge path of (a, b) steps walked backwards."""
    return [(b, a) for a, b in reversed(steps)]


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
        data = [{} for _ in range(rows)]
        for j, s in enumerate(k.simplices[d]):
            # the d + 1 faces of s are distinct rows of column j
            for i in range(d + 1):
                data[pos[s[:i] + s[i + 1:]]][j] = -1 if i % 2 else 1
        boundaries.append(IntMatrix._sparse(rows, cols, data))
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
    src, tgt = f.source.chains, f.target.chains
    top = max(src.top_degree, tgt.top_degree)
    comps = []
    for d in range(top + 1):
        rows = tgt.rank(d)
        data = [{} for _ in range(rows)]
        if d <= f.source.dim:
            pos = {s: i for i, s in enumerate(f.target.n_simplices(d))}
            for j, s in enumerate(f.source.n_simplices(d)):
                img = [f.apply_index(i) for i in s]
                if len(set(img)) != len(img):
                    continue
                # column j holds the one entry of a nondegenerate image
                data[pos[tuple(sorted(img))]][j] = _sort_sign(img)
        comps.append(IntMatrix._sparse(rows, src.rank(d), data))
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
# Presentations, loaded on first access
# ---------------------------------------------------------------------------

def __getattr__(name):
    if name not in ("pi1_presentation", "induced_pi1_endo"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import presentations
    return getattr(presentations, name)
