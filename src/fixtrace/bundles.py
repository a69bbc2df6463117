"""Discrete fiber bundles over graph bases and the factorization verifiers.

A bundle assigns a simplicial fiber to every vertex of a connected graph
and a transport map (with a designated homotopy inverse) to every
oriented edge.  A compatible self-map pair consists of a combinatorial
base map (vertices to vertices, edges to edge words) and fiber maps over
the vertices; compatibility is checked on fiber homology.

The total space is assembled from one fiber copy per base vertex and per
edge midpoint, glued by prisms (centered squares for graph fibers,
staircases above that); the prism verticals are the lift tracks
realizing transport.  Everything downstream is exact: the
base Reidemeister trace is computed on the tree-contracted chain model
of the graph, the per-class fiber data by composing transports, and the
two factorization statements (Lefschetz-number and Reidemeister-trace
versions) are compared side by side in verification reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import frac_identity, homology_maps
from .grouprings import (
    DEFAULT_DEPTH,
    EQUAL,
    UNKNOWN,
    FreeGroup,
    GroupEndomorphism,
    GroupHomomorphism,
    GroupRingElement,
    GroupRingMatrix,
    ShadowElement,
    TwistedClass,
    invert_word,
    nielsen,
    pushforward,
    reduce_word,
    shadow_equal,
    twisted_class,
)
from .reidemeister import (
    EquivariantChainComplex,
    LiftedSelfMap,
    TwistedChainMap,
    degree1_boundary,
    degree1_fox_lift,
    lift_self_map,
    reidemeister_trace_chain,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialError,
    SimplicialMap,
    build_complex,
    identity_map,
    induced_chain_map,
    lefschetz_number,
)


class BundleError(ValueError):
    pass


class NotConstructibleError(BundleError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


EdgeStep = Tuple[str, int]  # (edge id, +1 forward / -1 reversed)


# ---------------------------------------------------------------------------
# Graph bases and combinatorial base maps
# ---------------------------------------------------------------------------

class GraphBase:
    """Connected oriented multigraph with a chosen spanning tree."""

    def __init__(self, vertices: Sequence, edges: Sequence[Tuple[str, object, object]],
                 tree: Sequence[str], basepoint):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise BundleError("duplicate base vertices")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = tuple((str(e), s, d) for (e, s, d) in edges)
        self.edge_by_id = {}
        for (e, s, d) in self.edges:
            if e in self.edge_by_id:
                raise BundleError(f"duplicate edge id {e}")
            if s not in self.vertex_index or d not in self.vertex_index:
                raise BundleError(f"edge {e} has unknown endpoint")
            self.edge_by_id[e] = (s, d)
        self.tree = tuple(str(e) for e in tree)
        tree_set = set(self.tree)
        if len(tree_set) != len(self.tree):
            raise BundleError("duplicate tree edge ids")
        for e in self.tree:
            if e not in self.edge_by_id:
                raise BundleError(f"tree edge {e} is not an edge")
        if basepoint not in self.vertex_index:
            raise BundleError("unknown basepoint")
        self.basepoint = basepoint
        # breadth-first orientation of the tree from the basepoint
        adj: Dict[object, List[Tuple[object, str]]] = {v: [] for v in self.vertices}
        for e in self.tree:
            s, d = self.edge_by_id[e]
            adj[s].append((d, e))
            adj[d].append((s, e))
        parent: Dict[object, Optional[Tuple[object, str, int]]] = {basepoint: None}
        queue = [basepoint]
        while queue:
            v = queue.pop(0)
            for w, e in sorted(adj[v], key=lambda p: (self.vertex_index[p[0]], p[1])):
                if w not in parent:
                    s, d = self.edge_by_id[e]
                    sign = 1 if (s, d) == (v, w) else -1
                    parent[w] = (v, e, sign)
                    queue.append(w)
        if len(parent) != len(self.vertices):
            raise BundleError("tree does not span the graph")
        if len(self.tree) != len(self.vertices) - 1:
            raise BundleError("tree has the wrong number of edges")
        self._parent = parent
        self.generator_edges = tuple(e for (e, _, _) in self.edges
                                     if e not in tree_set)
        self.gen_index = {e: i for i, e in enumerate(self.generator_edges)}
        self.group = FreeGroup(len(self.generator_edges))

    def edge_endpoints(self, e: str) -> Tuple[object, object]:
        return self.edge_by_id[e]

    def step_endpoints(self, step: EdgeStep) -> Tuple[object, object]:
        e, sign = step
        s, d = self.edge_by_id[e]
        return (s, d) if sign == 1 else (d, s)

    def validate_word(self, word: Sequence[EdgeStep], start, end=None):
        cur = start
        for step in word:
            e, sign = step
            if e not in self.edge_by_id or sign not in (1, -1):
                raise BundleError(f"bad edge step {step}")
            a, b = self.step_endpoints(step)
            if a != cur:
                raise BundleError("edge word is not a path")
            cur = b
        if end is not None and cur != end:
            raise BundleError("edge word ends at the wrong vertex")
        return cur

    def tree_path(self, v) -> List[EdgeStep]:
        steps: List[EdgeStep] = []
        while self._parent[v] is not None:
            u, e, sign = self._parent[v]
            steps.append((e, sign))
            v = u
        steps.reverse()
        return steps

    def generator_loop(self, e: str) -> List[EdgeStep]:
        s, d = self.edge_by_id[e]
        return (self.tree_path(s) + [(e, 1)]
                + [(x, -sg) for (x, sg) in reversed(self.tree_path(d))])

    def word_of(self, steps: Sequence[EdgeStep]):
        letters = []
        for (e, sign) in steps:
            g = self.gen_index.get(e)
            if g is not None:
                letters.append((g, sign))
        return reduce_word(letters)

    def expand_element(self, g) -> List[EdgeStep]:
        """Edge-step loop at the basepoint representing a group element."""
        steps: List[EdgeStep] = []
        for (j, sign) in g:
            loop = self.generator_loop(self.generator_edges[j])
            if sign == 1:
                steps.extend(loop)
            else:
                steps.extend((e, -sg) for (e, sg) in reversed(loop))
        return steps

    def __repr__(self):
        return (f"GraphBase({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


class GraphSelfMap:
    """Base self-map: vertex images plus one edge word per edge."""

    def __init__(self, base: GraphBase, vertex_images: Dict,
                 edge_words: Dict[str, Sequence[EdgeStep]]):
        self.base = base
        self.vertex_images = dict(vertex_images)
        for v in base.vertices:
            if v not in self.vertex_images:
                raise BundleError(f"missing image for base vertex {v}")
            if self.vertex_images[v] not in base.vertex_index:
                raise BundleError(f"image of {v} is not a vertex")
        self.edge_words = {e: [tuple(s) for s in edge_words.get(e, ())]
                           for (e, _, _) in base.edges}
        for (e, s, d) in base.edges:
            base.validate_word(self.edge_words[e], self.vertex_images[s],
                               self.vertex_images[d])

    def apply_word(self, steps: Sequence[EdgeStep]) -> List[EdgeStep]:
        out: List[EdgeStep] = []
        for (e, sign) in steps:
            w = self.edge_words[e]
            if sign == 1:
                out.extend(w)
            else:
                out.extend((x, -sg) for (x, sg) in reversed(w))
        return out

    def is_identity(self) -> bool:
        return (all(self.vertex_images[v] == v for v in self.base.vertices)
                and all(self.edge_words[e] == [(e, 1)]
                        for (e, _, _) in self.base.edges))


def reverse_word(steps: Sequence[EdgeStep]) -> List[EdgeStep]:
    return [(e, -sg) for (e, sg) in reversed(steps)]


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

@dataclass
class Transport:
    forward: SimplicialMap
    inverse: SimplicialMap


def _is_homology_identity(f: SimplicialMap) -> bool:
    mats = homology_maps(induced_chain_map(f))
    for m in mats:
        n = len(m)
        if m != frac_identity(n):
            return False
    return True


class DiscreteBundle:
    """Fibers over vertices, transports (with designated inverses) over edges."""

    def __init__(self, base: GraphBase, fibers: Dict[object, SimplicialComplex],
                 transports: Dict[str, Transport]):
        self.base = base
        self.fibers = dict(fibers)
        for v in base.vertices:
            if v not in self.fibers:
                raise BundleError(f"missing fiber over {v}")
        self.transports = dict(transports)
        for (e, s, d) in base.edges:
            t = self.transports.get(e)
            if t is None:
                raise BundleError(f"missing transport for edge {e}")
            if t.forward.source != self.fibers[s] or t.forward.target != self.fibers[d]:
                raise BundleError(f"transport {e} has wrong endpoints")
            if t.inverse.source != self.fibers[d] or t.inverse.target != self.fibers[s]:
                raise BundleError(f"inverse transport {e} has wrong endpoints")
            if not _is_homology_identity(t.inverse.compose(t.forward)):
                raise BundleError(
                    f"transport {e}: inverse . forward is not homology identity")
            if not _is_homology_identity(t.forward.compose(t.inverse)):
                raise BundleError(
                    f"transport {e}: forward . inverse is not homology identity")

    def fiber(self, v) -> SimplicialComplex:
        return self.fibers[v]


def transport(bundle: DiscreteBundle, word: Sequence[EdgeStep], start
              ) -> SimplicialMap:
    """Composite of edge transports along a path; empty word is the identity."""
    bundle.base.validate_word(word, start)
    cur = start
    out = identity_map(bundle.fiber(start))
    for (e, sign) in word:
        t = bundle.transports[e]
        step_map = t.forward if sign == 1 else t.inverse
        out = step_map.compose(out)
        cur = bundle.base.step_endpoints((e, sign))[1]
    return out


# ---------------------------------------------------------------------------
# Self-map pairs
# ---------------------------------------------------------------------------

class BundleSelfMapPair:
    """A base self-map with compatible fiber maps over the vertices."""

    def __init__(self, bundle: DiscreteBundle, base_map: GraphSelfMap,
                 fiber_maps: Dict[object, SimplicialMap],
                 basepath: Optional[Sequence[EdgeStep]] = None,
                 total_map_images: Optional[Dict] = None):
        self.bundle = bundle
        self.base_map = base_map
        if base_map.base is not bundle.base:
            raise BundleError("base map belongs to a different graph")
        self.fiber_maps = dict(fiber_maps)
        base = bundle.base
        for v in base.vertices:
            f = self.fiber_maps.get(v)
            if f is None:
                raise BundleError(f"missing fiber map over {v}")
            fv = base_map.vertex_images[v]
            if f.source != bundle.fiber(v) or f.target != bundle.fiber(fv):
                raise BundleError(f"fiber map over {v} has wrong endpoints")
        if basepath is None:
            basepath = base.tree_path(base_map.vertex_images[base.basepoint])
        self.basepath = [tuple(s) for s in basepath]
        base.validate_word(self.basepath, base.basepoint,
                           base_map.vertex_images[base.basepoint])
        self.total_map_images = dict(total_map_images) if total_map_images else None
        # homological compatibility over every edge
        for (e, s, d) in base.edges:
            lhs = self.fiber_maps[d].compose(bundle.transports[e].forward)
            rhs = transport(bundle, base_map.edge_words[e],
                            base_map.vertex_images[s]).compose(self.fiber_maps[s])
            lm = homology_maps(induced_chain_map(lhs))
            rm = homology_maps(induced_chain_map(rhs))
            if lm != rm:
                raise BundleError(
                    f"fiber maps are not compatible with transport over {e}")

    # -- total space, built at most once per pair ---------------------------

    @cached_property
    def total(self) -> Tuple["TotalSpace", SimplicialMap]:
        """Total space and total self-map, from one ``total_map`` call."""
        return total_map(self)

    @cached_property
    def total_lift(self) -> LiftedSelfMap:
        """Universal-cover lift of the total map.

        Kept apart from ``total`` and built on first use: a total space
        whose fundamental group is unsupported still serves the Lefschetz
        side.
        """
        total, f = self.total
        return lift_self_map(total.complex, f)

    # -- base invariants ---------------------------------------------------

    def base_endomorphism(self) -> GroupEndomorphism:
        base = self.bundle.base
        beta = base.word_of(self.basepath)
        images = []
        for e in base.generator_edges:
            img = self.base_map.apply_word(base.generator_loop(e))
            w = reduce_word(beta + tuple(base.word_of(img)) + invert_word(beta))
            images.append(w)
        return GroupEndomorphism(base.group, images)

    def base_lift(self) -> TwistedChainMap:
        """Lift of the base map on the tree-contracted chain model."""
        base = self.bundle.base
        group = base.group
        gens = [((j, 1),) for j in range(len(base.generator_edges))]
        cover = EquivariantChainComplex(group, [1, len(gens)],
                                        [degree1_boundary(group, gens)])
        g0 = base.word_of(self.basepath)
        f0 = GroupRingMatrix(group, 1, 1, [GroupRingElement.of(group, g0)])
        words = [base.word_of(self.base_map.apply_word(base.generator_loop(e)))
                 for e in base.generator_edges]
        f1 = degree1_fox_lift(group, g0, words, reduce_word)
        return TwistedChainMap(cover, self.base_endomorphism(), [f0, f1])


def base_reidemeister(pair: BundleSelfMapPair, depth: int = DEFAULT_DEPTH
                      ) -> ShadowElement:
    """Reidemeister trace of the base map, computed at chain level."""
    return reidemeister_trace_chain(pair.base_lift(), depth)


# ---------------------------------------------------------------------------
# Potential fixed-point classes of the base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasePathClass:
    """Representative (vertex, path to its image) of a base twisted class."""

    base_vertex: object
    gamma: Tuple[EdgeStep, ...]
    twisted: TwistedClass
    complete: bool  # enumeration covered all classes


def base_twisted_classes(pair: BundleSelfMapPair, depth: int = DEFAULT_DEPTH
                         ) -> List[BasePathClass]:
    """Potential fixed-point classes of the base map.

    For a rank-one base group the enumeration is complete whenever the
    induced degree d differs from 1 (classes biject with Z/(1-d));
    otherwise representatives are produced up to the given depth and
    flagged as a truncated enumeration.
    """
    base = pair.bundle.base
    endo = pair.base_endomorphism()
    group = base.group
    b0 = base.basepoint

    def make(rep_word, complete):
        cls = twisted_class(group, endo, rep_word, depth)
        gamma = tuple(base.expand_element(rep_word) + pair.basepath)
        return BasePathClass(base_vertex=b0, gamma=gamma, twisted=cls,
                             complete=complete)

    k = group.rank
    if k == 0:
        return [make((), True)]
    if k == 1:
        d = sum(e for _, e in endo.images[0])
        c = 1 - d
        if c != 0:
            return [make(((0, 1),) * r if r else (), True)
                    for r in range(abs(c))]
        reps = []
        for r in range(-depth, depth + 1):
            w = ((0, 1),) * r if r >= 0 else ((0, -1),) * (-r)
            reps.append(make(w, False))
        return reps
    # higher rank: canonical forms of short words, no completeness claim
    seen = {}
    alphabet = [(j, s) for j in range(k) for s in (1, -1)]
    max_len = min(depth, 3)
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            w = reduce_word(letters)
            if len(w) != length:
                continue
            cls = twisted_class(group, endo, w, depth)
            if cls.key not in seen:
                seen[cls.key] = make(w, False)
    return [seen[key] for key in sorted(seen.keys())]


def class_of_element(pair: BundleSelfMapPair, rep_word,
                     depth: int = DEFAULT_DEPTH) -> BasePathClass:
    base = pair.bundle.base
    endo = pair.base_endomorphism()
    cls = twisted_class(base.group, endo, base.group.check(rep_word), depth)
    gamma = tuple(base.expand_element(rep_word) + pair.basepath)
    return BasePathClass(base_vertex=base.basepoint, gamma=gamma,
                         twisted=cls, complete=True)


# ---------------------------------------------------------------------------
# Per-class fiber data
# ---------------------------------------------------------------------------

def fiber_composite(pair: BundleSelfMapPair, base_vertex, gamma: Sequence[EdgeStep]
                    ) -> SimplicialMap:
    """Self-map transport(reversed gamma) . f_b of the fiber over the vertex.

    ``gamma`` must run from the vertex to its base-map image; transporting
    backwards along it plays the role of the path-lifting equivalence.
    """
    base = pair.bundle.base
    fb = pair.base_map.vertex_images[base_vertex]
    base.validate_word(gamma, base_vertex, fb)
    h = transport(pair.bundle, reverse_word(gamma), fb)
    return h.compose(pair.fiber_maps[base_vertex])


def fiber_composite_for_class(pair: BundleSelfMapPair, c: BasePathClass
                              ) -> SimplicialMap:
    return fiber_composite(pair, c.base_vertex, list(c.gamma))


def refined_lefschetz(pair: BundleSelfMapPair, classes: Sequence[BasePathClass]
                      ) -> List[Tuple[BasePathClass, int]]:
    """The per-class table C -> L(transport . fiber map)."""
    return [(c, lefschetz_number(fiber_composite_for_class(pair, c)))
            for c in classes]


# ---------------------------------------------------------------------------
# Total space
# ---------------------------------------------------------------------------

def _chart_vertex(chart: Tuple, x) -> Tuple:
    return chart + (x,)


@dataclass
class TotalSpace:
    complex: SimplicialComplex
    bundle: DiscreteBundle
    square_corners: Dict[Tuple, Tuple] = field(default_factory=dict)
    center_by_corners: Dict[frozenset, Tuple] = field(default_factory=dict)

    def fiber_vertex(self, base_vertex, x):
        return ("v", base_vertex, x)

    def midpoint_vertex(self, edge_id, x):
        return ("m", edge_id, x)

    def embed_fiber_path(self, base_vertex, steps_ids):
        """Fiber edge path (vertex id pairs) as total-space index pairs."""
        k = self.complex
        out = []
        for (a, b) in steps_ids:
            out.append((k.index[("v", base_vertex, a)],
                        k.index[("v", base_vertex, b)]))
        return out

    def track(self, edge_id, fiber_vertex) -> List[Tuple]:
        """Vertex path realizing transport along an edge, as total ids."""
        s, d = self.bundle.base.edge_endpoints(edge_id)
        t = self.bundle.transports[edge_id].forward
        return [("v", s, fiber_vertex), ("m", edge_id, fiber_vertex),
                ("v", d, t.vertex_images[fiber_vertex])]

    def transport_track(self, word: Sequence[EdgeStep], start_vertex,
                        fiber_vertex) -> Tuple[List[Tuple], object]:
        """Total-space path realizing transport along a base edge word.

        Returns (total vertex path, final fiber vertex).  Reversed steps
        need vertex-bijective transports.
        """
        base = self.bundle.base
        base.validate_word(word, start_vertex)
        path = [("v", start_vertex, fiber_vertex)]
        cur_base = start_vertex
        cur = fiber_vertex
        for (e, sign) in word:
            if sign == 1:
                seg = self.track(e, cur)
                if seg[0] != path[-1]:
                    raise BundleError("track does not start where expected")
                path.extend(seg[1:])
                cur = seg[-1][2]
                cur_base = base.edge_endpoints(e)[1]
            else:
                t = self.bundle.transports[e].forward
                inverse_images = {w: v for v, w in t.vertex_images.items()}
                if len(inverse_images) != len(t.vertex_images):
                    raise NotConstructibleError(
                        f"transport over {e} is not vertex-bijective; "
                        f"reversed lift track unavailable")
                pre = inverse_images.get(cur)
                if pre is None:
                    raise NotConstructibleError(
                        f"no preimage for fiber vertex under transport {e}")
                seg = self.track(e, pre)
                seg = list(reversed(seg))
                if seg[0] != path[-1]:
                    raise BundleError("reversed track mismatch")
                path.extend(seg[1:])
                cur = pre
                cur_base = base.edge_endpoints(e)[0]
        return path, cur


def total_space(bundle: DiscreteBundle) -> TotalSpace:
    """Glue vertex fibers with prisms over the edges.

    Each edge contributes two prisms through a midpoint copy of its
    source fiber, so self-loops and repeated vertices stay simplicial.
    For fibers of dimension at most one, each prism square receives a
    center vertex (four cone triangles); this triangulation is symmetric
    under direction reversal, so self-maps that flip base edges or fiber
    orientations remain simplicial.  Higher-dimensional fibers use the
    monotone staircase rule instead, which requires order-preserving
    transports.
    """
    base = bundle.base
    vertices: List[Tuple] = []
    for b in base.vertices:
        for x in bundle.fiber(b).vertices:
            vertices.append(("v", b, x))
    for (e, s, _) in base.edges:
        for x in bundle.fiber(s).vertices:
            vertices.append(("m", e, x))
    maximal: List[Tuple] = []
    square_corners: Dict[Tuple, Tuple] = {}
    for b in base.vertices:
        fib = bundle.fiber(b)
        for s in fib.maximal_simplices():
            maximal.append(tuple(("v", b, x) for x in fib.vertex_ids(s)))

    def centered_prism(e: str, side: int, bot_chart, top_chart,
                       fib: SimplicialComplex, images: Dict, label: str):
        for s in fib.maximal_simplices():
            ids = fib.vertex_ids(s)
            img = [images[x] for x in ids]
            if len(set(img)) != len(img):
                raise NotConstructibleError(
                    f"transport {label} is not injective on a simplex")
            if len(ids) == 1:
                maximal.append((_chart_vertex(bot_chart, ids[0]),
                                _chart_vertex(top_chart, img[0])))
            else:
                x, y = ids
                center = ("c", e, side, x, y)
                vertices.append(center)
                bx = _chart_vertex(bot_chart, x)
                by = _chart_vertex(bot_chart, y)
                tx = _chart_vertex(top_chart, images[x])
                ty = _chart_vertex(top_chart, images[y])
                square_corners[center] = (bx, by, tx, ty)
                maximal.extend([(center, bx, by), (center, tx, ty),
                                (center, bx, tx), (center, by, ty)])

    def staircase_prism(bot_chart, top_chart, fib: SimplicialComplex,
                        images: Dict, label: str):
        for s in fib.maximal_simplices():
            ids = fib.vertex_ids(s)
            img = [images[x] for x in ids]
            if len(set(img)) != len(img):
                raise NotConstructibleError(
                    f"transport {label} is not injective on a simplex")
            order = [fib.index.get(y) for y in img]
            if any(o is None for o in order) or order != sorted(order):
                raise NotConstructibleError(
                    f"transport {label} is not monotone on a simplex; "
                    f"cannot triangulate the prism")
            p = len(ids) - 1
            for i in range(p + 1):
                piece = ([_chart_vertex(bot_chart, x) for x in ids[:i + 1]]
                         + [_chart_vertex(top_chart, images[x])
                            for x in ids[i:]])
                maximal.append(tuple(piece))

    for (e, s, d) in base.edges:
        fib = bundle.fiber(s)
        ident = {x: x for x in fib.vertices}
        t = bundle.transports[e].forward
        if fib.dim <= 1:
            centered_prism(e, 0, ("v", s), ("m", e), fib, ident, f"{e} (lower)")
            centered_prism(e, 1, ("m", e), ("v", d), fib, t.vertex_images,
                           f"{e} (upper)")
        else:
            staircase_prism(("v", s), ("m", e), fib, ident, f"{e} (lower)")
            staircase_prism(("m", e), ("v", d), fib, t.vertex_images,
                            f"{e} (upper)")

    complex = build_complex(maximal, vertices=vertices)
    center_by_corners = {frozenset(corners): c
                         for c, corners in square_corners.items()}
    return TotalSpace(complex=complex, bundle=bundle,
                      square_corners=square_corners,
                      center_by_corners=center_by_corners)


def total_map(pair: BundleSelfMapPair) -> Tuple[TotalSpace, SimplicialMap]:
    """Total space and its simplicial self-map covering the base map.

    Constructed automatically when every edge maps to a word of length at
    most one; otherwise the pair must supply total vertex images, which
    are validated against the projection and the fiber maps.  Callers
    that hold a pair read ``pair.total``, which calls this once.
    """
    total = total_space(pair.bundle)
    base = pair.bundle.base
    k = total.complex
    if pair.total_map_images is not None:
        images = dict(pair.total_map_images)
        _fill_center_images(total, images)
        f = SimplicialMap(k, k, images)
        _validate_total_map(pair, total, f)
        return total, f
    images = {}
    for b in base.vertices:
        fb = pair.base_map.vertex_images[b]
        fm = pair.fiber_maps[b]
        for x in pair.bundle.fiber(b).vertices:
            images[("v", b, x)] = ("v", fb, fm.vertex_images[x])
    for (e, s, d) in base.edges:
        word = pair.base_map.edge_words[e]
        fm = pair.fiber_maps[s]
        if len(word) == 0:
            for x in pair.bundle.fiber(s).vertices:
                images[("m", e, x)] = ("v", pair.base_map.vertex_images[s],
                                       fm.vertex_images[x])
        elif len(word) == 1:
            (e2, sign) = word[0]
            if sign == 1:
                for x in pair.bundle.fiber(s).vertices:
                    images[("m", e, x)] = ("m", e2, fm.vertex_images[x])
            else:
                t2 = pair.bundle.transports[e2].forward
                inv = {w: v for v, w in t2.vertex_images.items()}
                if len(inv) != len(t2.vertex_images):
                    raise NotConstructibleError(
                        f"edge {e} reverses over {e2} whose transport is "
                        f"not vertex-bijective")
                for x in pair.bundle.fiber(s).vertices:
                    y = fm.vertex_images[x]
                    if y not in inv:
                        raise NotConstructibleError(
                            f"edge {e}: no transport preimage over {e2}")
                    images[("m", e, x)] = ("m", e2, inv[y])
        else:
            raise NotConstructibleError(
                f"edge {e} maps to a word of length {len(word)}; the chosen "
                f"prism subdivision cannot realize it")
    _fill_center_images(total, images)
    try:
        f = SimplicialMap(k, k, images)
    except SimplicialError as exc:
        raise NotConstructibleError(
            f"constructed vertex images are not simplicial: {exc}")
    return total, f


def _fill_center_images(total: TotalSpace, images: Dict) -> None:
    """Extend corner images over the prism-square centers.

    A square mapping onto four distinct vertices must land on a square of
    the triangulation (its center is the image); a collapsed square sends
    its center along with its first corner.
    """
    for center, corners in total.square_corners.items():
        if center in images:
            continue
        try:
            img = [images[c] for c in corners]
        except KeyError as exc:
            raise NotConstructibleError(f"missing corner image: {exc}")
        distinct = set(img)
        if len(distinct) == 4:
            c2 = total.center_by_corners.get(frozenset(distinct))
            if c2 is None:
                raise NotConstructibleError(
                    "a prism square maps onto four vertices that do not "
                    "bound a square of the total space")
            images[center] = c2
        elif len(distinct) <= 2:
            images[center] = img[0]
        else:
            raise NotConstructibleError(
                "a prism square maps onto three distinct vertices")


def _validate_total_map(pair: BundleSelfMapPair, total: TotalSpace,
                        f: SimplicialMap) -> None:
    base = pair.bundle.base
    for b in base.vertices:
        fb = pair.base_map.vertex_images[b]
        fm = pair.fiber_maps[b]
        for x in pair.bundle.fiber(b).vertices:
            got = f.vertex_images[("v", b, x)]
            want = ("v", fb, fm.vertex_images[x])
            if got != want:
                raise BundleError(
                    f"total map does not restrict to the fiber map over {b}")
    for (e, s, d) in base.edges:
        word = pair.base_map.edge_words[e]
        allowed = {("v", pair.base_map.vertex_images[s])}
        cur = pair.base_map.vertex_images[s]
        for step in word:
            eid, sign = step
            allowed.add(("m", eid))
            cur = base.step_endpoints(step)[1]
            allowed.add(("v", cur))
        for x in pair.bundle.fiber(s).vertices:
            got = f.vertex_images[("m", e, x)]
            if got[:2] not in allowed:
                raise BundleError(
                    f"total map sends midpoint chart of {e} outside the "
                    f"image of the base edge")


# ---------------------------------------------------------------------------
# Fiberwise data pushed into the total space
# ---------------------------------------------------------------------------

def refined_reidemeister(pair: BundleSelfMapPair, c: BasePathClass,
                         depth: int = DEFAULT_DEPTH) -> ShadowElement:
    """Pushforward of the fiber Reidemeister trace of the class composite.

    The fiber self-map is lifted per invariant component; each component's
    trace is pushed into the total space with the correction word built
    from the reversed lift track of the class path, exactly the whiskering
    that identifies a fiber fixed point with a total-space fixed point.
    """
    b = c.base_vertex
    fb = pair.base_map.vertex_images[b]
    gamma = list(c.gamma)
    k_map = fiber_composite(pair, b, gamma)
    fiber = pair.bundle.fiber(b)
    total, f_total = pair.total
    lifted = pair.total_lift
    pe = lifted.presentation
    te = total.complex
    result = ShadowElement.zero(pe.group, lifted.endo)
    for comp in fiber.components():
        comp_ids = set(fiber.vertices[i] for i in comp)
        if any(k_map.vertex_images[x] not in comp_ids for x in comp_ids):
            continue
        sub = fiber.subcomplex(comp)
        k_sub = SimplicialMap(sub, sub, {x: k_map.vertex_images[x]
                                         for x in sub.vertices})
        lifted_f = lift_self_map(sub, k_sub)
        r_comp = lifted_f.trace(depth)
        pf = lifted_f.presentation
        x0 = sub.vertices[0]
        # alpha: total-space tree path from the total basepoint to x0
        x0_total = te.index[("v", b, x0)]
        alpha = pe.tree_path(x0_total)
        # iota on the surviving generators: fiber loops whiskered by alpha
        images = []
        for gi in pf._final_gens:
            loop_ids = [(sub.vertices[a], sub.vertices[bb])
                        for (a, bb) in pf.generator_loop(gi)]
            loop_total = total.embed_fiber_path(b, loop_ids)
            word = alpha + loop_total + _reverse_index_path(alpha)
            images.append(pe.element_of_path(word))
        iota = GroupHomomorphism(pf.group, pe.group, images)
        # correction word
        beta_f_ids = [(sub.vertices[a], sub.vertices[bb])
                      for (a, bb) in lifted_f.basepath]
        beta_f = total.embed_fiber_path(b, beta_f_ids)
        y0 = pair.fiber_maps[b].vertex_images[x0]
        track_path, end_vertex = total.transport_track(
            reverse_word(gamma), fb, y0)
        if end_vertex != k_map.vertex_images[x0]:
            raise BundleError("lift track does not land on the composite image")
        rho = _as_index_steps(te, list(reversed(track_path)))
        f_alpha = [(f_total.apply_index(a), f_total.apply_index(bb))
                   for (a, bb) in alpha]
        beta_e = list(lifted.basepath)
        word = (alpha + beta_f + rho + _reverse_index_path(f_alpha)
                + _reverse_index_path(beta_e))
        w_elem = pe.element_of_path(word)
        pushed = pushforward(iota, lifted_f.endo, lifted.endo, w_elem,
                             r_comp, depth)
        result = result + pushed
    return result


def _reverse_index_path(steps: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    return [(b, a) for (a, b) in reversed(steps)]


def _as_index_steps(k: SimplicialComplex, vertex_path: List) -> List[Tuple[int, int]]:
    out = []
    for a, b in zip(vertex_path, vertex_path[1:]):
        out.append((k.index[a], k.index[b]))
    return out


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

def class_label(cls: TwistedClass) -> str:
    key = cls.key
    if isinstance(key, tuple) and all(isinstance(x, int) for x in key):
        return "[" + ",".join(str(x) for x in key) + "]"
    if isinstance(key, int):
        return f"[{key}]"
    if isinstance(key, tuple):
        if not key:
            return "[e]"
        return "[" + ".".join(f"g{g}^{e}" for g, e in key) + "]"
    return f"[{key}]"


def shadow_rendering(s: ShadowElement) -> List[List]:
    return [[class_label(cls), c] for cls, c in s.items()]


@dataclass
class VerificationReport:
    theorem: str
    rows: List[Dict]
    lhs: object
    rhs: object
    verdict: str  # "pass" | "fail" | "indeterminate"
    flags: List[str]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_lefschetz_mult(pair: BundleSelfMapPair,
                          depth: int = DEFAULT_DEPTH) -> VerificationReport:
    """Check L(total map) against the index-weighted fiberwise values."""
    flags: List[str] = []
    _, tmap = pair.total
    lhs = lefschetz_number(tmap)
    rbar = base_reidemeister(pair, depth)
    if rbar.has_heuristic:
        flags.append(f"heuristic base classes (depth {depth})")
    rows = []
    rhs = 0
    for cls, ind in rbar.items():
        bpc = class_of_element(pair, cls.rep, depth)
        value = lefschetz_number(fiber_composite_for_class(pair, bpc))
        rows.append({"class": class_label(cls), "ind": ind,
                     "fiber_lefschetz": value})
        rhs += ind * value
    if flags:
        verdict = "indeterminate"
    elif lhs == rhs:
        verdict = "pass"
    else:
        verdict = "fail"
    return VerificationReport(theorem="lefschetz", rows=rows, lhs=lhs,
                              rhs=rhs, verdict=verdict, flags=flags)


def verify_reidemeister_mult(pair: BundleSelfMapPair,
                             depth: int = DEFAULT_DEPTH) -> VerificationReport:
    """Check R(total map) against the pushed fiberwise Reidemeister data."""
    flags: List[str] = []
    lifted = pair.total_lift
    lhs = lifted.trace(depth)
    rbar = base_reidemeister(pair, depth)
    if rbar.has_heuristic:
        flags.append(f"heuristic base classes (depth {depth})")
    rows = []
    rhs = ShadowElement.zero(lifted.presentation.group, lifted.endo)
    for cls, ind in rbar.items():
        bpc = class_of_element(pair, cls.rep, depth)
        pushed = refined_reidemeister(pair, bpc, depth)
        rows.append({"class": class_label(cls), "ind": ind,
                     "fiber_reidemeister": shadow_rendering(pushed)})
        rhs = rhs + pushed.scale(ind)
    comparison = shadow_equal(lhs, rhs, depth)
    if comparison == UNKNOWN:
        verdict = "indeterminate"
        flags.append("class comparison returned Unknown")
    elif flags:
        verdict = "indeterminate"
    elif comparison == EQUAL:
        verdict = "pass"
    else:
        verdict = "fail"
    return VerificationReport(theorem="reidemeister", rows=rows,
                              lhs=shadow_rendering(lhs),
                              rhs=shadow_rendering(rhs),
                              verdict=verdict, flags=flags)


def nielsen_additivity(pair: BundleSelfMapPair, depth: int = DEFAULT_DEPTH
                       ) -> Tuple[int, int, List[Tuple[str, int]]]:
    """Nielsen number of the total map against the per-class counts.

    Returns (N(total), sum of the per-class counts, per-class table);
    raises IndeterminateError when any comparison is Unknown.
    """
    lhs = pair.total_lift.trace(depth)
    n_total = nielsen(lhs, depth)
    rbar = base_reidemeister(pair, depth)
    per_class: List[Tuple[str, int]] = []
    total = 0
    for cls, ind in rbar.items():
        if ind == 0:
            continue
        bpc = class_of_element(pair, cls.rep, depth)
        pushed = refined_reidemeister(pair, bpc, depth)
        c = nielsen(pushed, depth)
        per_class.append((class_label(cls), c))
        total += c
    return n_total, total, per_class
