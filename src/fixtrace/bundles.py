"""Discrete fiber bundles over graph bases and the factorization verifiers.

A bundle assigns a simplicial fiber to every vertex of a connected graph
and a transport map (with a designated homotopy inverse) to every
oriented edge.  A compatible self-map pair consists of a combinatorial
base map (vertices to vertices, edges to edge words) and fiber maps over
the vertices; compatibility is checked on fiber homology.

The total space is assembled from one fiber copy per base vertex and per
edge midpoint (two over a loop), glued by prisms (centered squares for
graph fibers, staircases above that); the prism verticals are the lift
tracks realizing transport.  Everything downstream is exact: the base
Reidemeister trace is computed on the tree-contracted chain model of the
graph, the per-class Lefschetz numbers by composing designated inverses,
the total map and the per-class fiber maps of the Reidemeister side by
walking lift tracks, and the two factorization statements
(Lefschetz-number and Reidemeister-trace versions) are compared side by
side in verification reports.  The total map is never given: it is built
from the base map and the fiber maps alone.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import homology_maps
from .grouprings import (
    EQUAL,
    UNKNOWN,
    FreeGroup,
    GroupHomomorphism,
    ShadowElement,
    TwistedClass,
    class_label,
    nielsen,
    pushforward,
    shadow_equal,
    shadow_rendering,
)
from .presentations import pi1_presentation
from .reidemeister import (
    EquivariantChainComplex,
    TwistedChainMap,
    degree1_boundary,
    lift_low_degrees,
    lift_map,
    lift_self_map,
    lift_to_universal_cover,
    reidemeister_trace_chain,
)
from .simplicial import (
    SimplicialComplex,
    SimplicialError,
    SimplicialMap,
    build_complex,
    induced_chain_map,
    lefschetz_number,
    reverse_path,
)
from .words import expand_word, invert_word, reduce_word


class BundleError(ValueError):
    exit_code = 2


class NotConstructibleError(BundleError):
    exit_code = 3


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
        queue = deque([basepoint])
        while queue:
            v = queue.popleft()
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

    def step_endpoints(self, step: EdgeStep) -> Tuple[object, object]:
        e, sign = step
        s, d = self.edge_by_id[e]
        return (s, d) if sign == 1 else (d, s)

    def validate_word(self, word: Sequence[EdgeStep], start, end) -> None:
        """Input check of an edge word or a basepath: a path of known edges
        from ``start`` to ``end``.  The readers make each sign 1 or -1."""
        cur = start
        for step in word:
            if step[0] not in self.edge_by_id:
                raise BundleError(f"bad edge step {step}")
            a, b = self.step_endpoints(step)
            if a != cur:
                raise BundleError("edge word is not a path")
            cur = b
        if cur != end:
            raise BundleError("edge word ends at the wrong vertex")

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
        return [*self.tree_path(s), (e, 1), *invert_word(self.tree_path(d))]

    def word_of(self, steps: Sequence[EdgeStep]):
        letters = []
        for (e, sign) in steps:
            g = self.gen_index.get(e)
            if g is not None:
                letters.append((g, sign))
        return reduce_word(letters)

    def expand_element(self, g) -> List[EdgeStep]:
        """Edge-step loop at the basepoint representing a group element."""
        return expand_word(
            g, lambda j: self.generator_loop(self.generator_edges[j]))

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
        for v in self.vertex_images:
            if v not in base.vertex_index:
                raise BundleError(f"unknown base vertex {v}")
        for e in edge_words:
            if e not in base.edge_by_id:
                raise BundleError(f"unknown base edge {e}")

    def apply_word(self, steps: Sequence[EdgeStep]) -> List[EdgeStep]:
        return expand_word(steps, self.edge_words.__getitem__)


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

class Transport:
    """A transport map over an edge with its designated homotopy inverse."""

    __slots__ = ("forward", "inverse")

    def __init__(self, forward: SimplicialMap, inverse: SimplicialMap):
        self.forward = forward
        self.inverse = inverse

    def preimages(self) -> Optional[Dict]:
        """The forward vertex map inverted, or None when two fiber
        vertices share an image."""
        images = self.forward.vertex_images
        inverse = {w: v for v, w in images.items()}
        return inverse if len(inverse) == len(images) else None


def _is_homology_identity(f: SimplicialMap) -> bool:
    return all(m == [[int(i == j) for j in range(len(m))]
                     for i in range(len(m))]
               for m in homology_maps(induced_chain_map(f)))


class DiscreteBundle:
    """Fibers over vertices, transports (with designated inverses) over edges.

    The caller gives a fiber over every vertex and, over every edge, a
    transport between the fibers at its ends (``pairs.parse_bundle`` and
    the catalog do); the constructor checks only that each transport and
    its inverse compose to the identity on homology.
    """

    def __init__(self, base: GraphBase, fibers: Dict[object, SimplicialComplex],
                 transports: Dict[str, Transport]):
        self.base = base
        self.fibers = dict(fibers)
        self.transports = dict(transports)
        for (e, _, _) in base.edges:
            t = self.transports[e]
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
    """Composite of edge transports along a path; empty word is the identity.
    The vertex images are composed first, so one map is built and checked."""
    source = target = bundle.fiber(start)
    images = {x: x for x in source.vertices}
    for (e, sign) in word:
        t = bundle.transports[e]
        step_map = t.forward if sign == 1 else t.inverse
        images = {x: step_map.vertex_images[y] for x, y in images.items()}
        target = step_map.target
    return SimplicialMap(source, target, images)


# ---------------------------------------------------------------------------
# Self-map pairs
# ---------------------------------------------------------------------------

class BundleSelfMapPair:
    """A base self-map with compatible fiber maps over the vertices.

    The caller gives the base map on the bundle's own base and a fiber map
    from the fiber over each vertex to the fiber over its image
    (``pairs.parse_pair`` and the catalog do); the constructor checks the
    basepath and the compatibility with transport on fiber homology.
    """

    def __init__(self, bundle: DiscreteBundle, base_map: GraphSelfMap,
                 fiber_maps: Dict[object, SimplicialMap],
                 basepath: Optional[Sequence[EdgeStep]] = None):
        self.bundle = bundle
        self.base_map = base_map
        self.fiber_maps = dict(fiber_maps)
        base = bundle.base
        if basepath is None:
            basepath = base.tree_path(base_map.vertex_images[base.basepoint])
        self.basepath = [tuple(s) for s in basepath]
        base.validate_word(self.basepath, base.basepoint,
                           base_map.vertex_images[base.basepoint])
        self._traces: Dict[tuple, ShadowElement] = {}
        self._fiber_covers: Dict[Tuple[int, ...], EquivariantChainComplex] = {}
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
    def total_lift(self) -> TwistedChainMap:
        """Universal-cover lift of the total map.

        Kept apart from ``total`` and built on first use: a total space
        whose fundamental group is unsupported still serves the Lefschetz
        side.
        """
        total, f = self.total
        return lift_self_map(total.complex, f)

    def fiber_cover(self, comp: Tuple[int, ...]) -> EquivariantChainComplex:
        """Universal-cover model of one component of the basepoint fiber.

        Built on first use and shared by every base class: only the fiber
        map, never the fiber, differs between classes.  The presentation
        is ``cover.presentation``, of the full subcomplex on ``comp``.
        """
        if comp not in self._fiber_covers:
            fiber = self.bundle.fiber(self.bundle.base.basepoint)
            sub = fiber.subcomplex(comp)
            self._fiber_covers[comp] = lift_to_universal_cover(
                pi1_presentation(sub, sub.vertices[0]))
        return self._fiber_covers[comp]

    # -- traces, each computed once per depth (and per base class) ---------

    def _trace(self, key: tuple, compute) -> ShadowElement:
        if key not in self._traces:
            self._traces[key] = compute()
        return self._traces[key]

    def total_trace(self, depth: int) -> ShadowElement:
        """Reidemeister trace of the total map."""
        return self._trace(("total", depth),
                           lambda: reidemeister_trace_chain(
                               self.total_lift, depth))

    def base_trace(self, depth: int) -> ShadowElement:
        """Reidemeister trace of the base map."""
        return self._trace(("base", depth),
                           lambda: base_reidemeister(self, depth))

    def fiber_trace(self, cls: TwistedClass, depth: int) -> ShadowElement:
        """Pushed fiber Reidemeister trace of a class of ``base_trace(depth)``."""
        return self._trace(("fiber", depth, cls.key),
                           lambda: refined_reidemeister(self, cls, depth))

    # -- base invariants ---------------------------------------------------

    @cached_property
    def base_loop_images(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Words of the base-map images of the generator loops."""
        base = self.bundle.base
        return [base.word_of(self.base_map.apply_word(base.generator_loop(e)))
                for e in base.generator_edges]

    def base_lift(self) -> TwistedChainMap:
        """Lift of the base map on the tree-contracted chain model; every
        generator of the free base group survives."""
        base = self.bundle.base
        group = base.group
        cover = EquivariantChainComplex(group, [1, group.rank],
                                        [degree1_boundary(group)])
        endo, _, comps = lift_low_degrees(group, base.word_of(self.basepath),
                                          self.base_loop_images)
        return TwistedChainMap(cover, endo, comps)

    def class_path(self, cls: TwistedClass) -> List[EdgeStep]:
        """Path from the basepoint to its image representing a base class.

        ``cls`` is a class of the base trace; the inverse of its
        representative loop is followed by the basepath.  A fixed point p
        reached along sigma has the class of g = beta . f(sigma) . sigma^-1
        (beta the basepath), and sigma . f(sigma)^-1 = g^-1 . beta.
        """
        base = self.bundle.base
        return base.expand_element(base.group.inv(cls.rep)) + self.basepath


def base_reidemeister(pair: BundleSelfMapPair, depth: int) -> ShadowElement:
    """Reidemeister trace of the base map, computed at chain level."""
    return reidemeister_trace_chain(pair.base_lift(), depth)


# ---------------------------------------------------------------------------
# Per-class fiber data
# ---------------------------------------------------------------------------

def fiber_composite(pair: BundleSelfMapPair, base_vertex, gamma: Sequence[EdgeStep]
                    ) -> SimplicialMap:
    """Self-map transport(reversed gamma) . f_b of the fiber over the vertex.

    ``gamma`` must run from the vertex to its base-map image; transporting
    backwards along it by the designated inverses gives a class's
    Lefschetz number and the fiber components its fiber map keeps.
    """
    fb = pair.base_map.vertex_images[base_vertex]
    h = transport(pair.bundle, invert_word(gamma), fb)
    return h.compose(pair.fiber_maps[base_vertex])


# ---------------------------------------------------------------------------
# Total space
# ---------------------------------------------------------------------------

def _edge_layers(bundle: DiscreteBundle, e: str
                 ) -> Tuple[List[Tuple], List[Tuple[str, Dict]]]:
    """Charts of the fiber copies over an edge, from source to target, and
    the name and vertex map of the prism joining each copy to the next.
    The midpoint chart ``("m", e)`` is the one inner copy, except over a
    loop, which gets a second, ``("n", e)``, so no two prisms share faces."""
    s, d = bundle.base.edge_by_id[e]
    ident = {x: x for x in bundle.fiber(s).vertices}
    upper = ("upper", bundle.transports[e].forward.vertex_images)
    if s == d:
        return ([("v", s), ("m", e), ("n", e), ("v", d)],
                [("lower", ident), ("middle", ident), upper])
    return [("v", s), ("m", e), ("v", d)], [("lower", ident), upper]


class TotalSpace:
    """The glued total-space complex with the prism data of its bundle."""

    __slots__ = ("complex", "bundle", "square_corners")

    def __init__(self, complex: SimplicialComplex, bundle: DiscreteBundle,
                 square_corners: Dict[Tuple, Tuple]):
        self.complex = complex
        self.bundle = bundle
        self.square_corners = square_corners

    def transport_track(self, word: Sequence[EdgeStep], start_vertex,
                        fiber_vertex) -> Tuple[List[Tuple], object]:
        """Total-space path realizing transport along a base edge word.

        Returns (total vertex path, final fiber vertex).  This is the one
        rule by which a fiber vertex moves along base edges: a forward step
        climbs the edge's layers, a reversed step climbs them from the
        vertex's preimage and is walked back, so it needs a vertex-bijective
        transport.  ``word`` must be a path from ``start_vertex``.
        """
        path = [("v", start_vertex, fiber_vertex)]
        for (e, sign) in word:
            x = path[-1][2]
            if sign == -1:
                inverse_images = self.bundle.transports[e].preimages()
                if inverse_images is None or x not in inverse_images:
                    raise NotConstructibleError(
                        f"transport over {e} is not vertex-bijective; "
                        f"reversed lift track unavailable")
                x = inverse_images[x]
            charts, joins = _edge_layers(self.bundle, e)
            seg = [charts[0] + (x,)]
            for chart, (_, images) in zip(charts[1:], joins):
                x = images[x]
                seg.append(chart + (x,))
            path.extend(seg[1:] if sign == 1 else seg[-2::-1])
        return path, path[-1][2]


def total_space(bundle: DiscreteBundle) -> TotalSpace:
    """Glue vertex fibers with prisms over the edges.

    Each edge stacks the fiber copies listed by ``_edge_layers`` and joins
    consecutive copies by a prism, whose vertex map must be injective on
    every maximal simplex of the lower copy; a loop edge stacks three.  In
    a fiber of dimension at most one, an edge's square receives a center
    vertex (four cone triangles); this triangulation is symmetric under
    direction reversal, so self-maps that flip base edges or fiber
    orientations remain simplicial.  Every other simplex becomes a
    staircase, which in fibers of dimension two and up requires
    order-preserving transports.
    """
    base = bundle.base
    vertices: List[Tuple] = []
    maximal: List[Tuple] = []
    for b in base.vertices:
        fib = bundle.fiber(b)
        vertices.extend(("v", b, x) for x in fib.vertices)
        for s in fib.maximal_simplices():
            maximal.append(tuple(("v", b, x) for x in fib.vertex_ids(s)))
    square_corners: Dict[Tuple, Tuple] = {}
    for (e, s, _) in base.edges:
        fib = bundle.fiber(s)
        simplices = [fib.vertex_ids(m) for m in fib.maximal_simplices()]
        charts, joins = _edge_layers(bundle, e)
        for chart in charts[1:-1]:
            vertices.extend(chart + (x,) for x in fib.vertices)
        for side, (bot, top, (name, images)) in enumerate(
                zip(charts, charts[1:], joins)):
            for ids in simplices:
                img = [images[x] for x in ids]
                if len(set(img)) != len(img):
                    raise NotConstructibleError(
                        f"transport {e} ({name}) is not injective on a simplex")
                if len(ids) == 2 and fib.dim <= 1:
                    x, y = ids
                    center = ("c", e, side, x, y)
                    bx, by = bot + (x,), bot + (y,)
                    tx, ty = top + (img[0],), top + (img[1],)
                    square_corners[center] = (bx, by, tx, ty)
                    maximal.extend([(center, bx, by), (center, tx, ty),
                                    (center, bx, tx), (center, by, ty)])
                    continue
                if fib.dim >= 2:
                    order = [fib.index.get(y) for y in img]
                    if any(o is None for o in order) or order != sorted(order):
                        raise NotConstructibleError(
                            f"transport {e} ({name}) is not monotone on a "
                            f"simplex; cannot triangulate the prism")
                for i in range(len(ids)):
                    maximal.append(tuple([bot + (x,) for x in ids[:i + 1]]
                                         + [top + (y,) for y in img[i:]]))

    complex = build_complex(maximal, vertices=vertices + list(square_corners))
    # A bundle over a graph has chi(E) = chi(B) chi(F).  Prisms whose faces
    # coincide would glue to another space, on which every verdict would
    # be about the wrong total space.
    chi_total = complex.euler_characteristic()
    chi_want = ((len(base.vertices) - len(base.edges))
                * bundle.fiber(base.basepoint).euler_characteristic())
    if chi_total != chi_want:
        raise NotConstructibleError(
            f"total space has Euler characteristic {chi_total}, but "
            f"(|V_B| - |E_B|) * chi(F) = {chi_want}")
    return TotalSpace(complex=complex, bundle=bundle,
                      square_corners=square_corners)


def total_map(pair: BundleSelfMapPair) -> Tuple[TotalSpace, SimplicialMap]:
    """Total space and its simplicial self-map covering the base map.

    The one rule: the map is the fiber map on each vertex fiber chart and
    sends chart i of an edge e over x to vertex i of the lift track of
    f_s(x) along e's word (to its one vertex if the word is empty).  An
    edge whose word is longer than one letter, or whose word's track has
    another number of layers, is not constructible.  Callers that hold a
    pair read ``pair.total``, which calls this once.
    """
    total = total_space(pair.bundle)
    base = pair.bundle.base
    k = total.complex
    for (e, _, _) in base.edges:
        n = len(pair.base_map.edge_words[e])
        if n > 1:
            raise NotConstructibleError(
                f"edge {e} maps to a word of length {n}; the chosen "
                f"prism subdivision cannot realize it")
    fb = pair.base_map.vertex_images
    images = {("v", b, x): ("v", fb[b], pair.fiber_maps[b].vertex_images[x])
              for b in base.vertices for x in pair.bundle.fiber(b).vertices}
    for (e, s, _) in base.edges:
        word = pair.base_map.edge_words[e]
        fm = pair.fiber_maps[s].vertex_images
        for x in pair.bundle.fiber(s).vertices:
            own, _ = total.transport_track([(e, 1)], s, x)
            track, _ = total.transport_track(word, fb[s], fm[x])
            if not word:
                track = track * len(own)
            elif len(track) != len(own):
                raise NotConstructibleError(
                    f"edge {e} has {len(own)} layers but the edge word it "
                    f"maps to has {len(track)}; no prism map realizes it")
            images.update(zip(own[1:-1], track[1:-1]))
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
    center_by_corners = {frozenset(corners): c
                         for c, corners in total.square_corners.items()}
    for center, corners in total.square_corners.items():
        img = [images[c] for c in corners]
        distinct = set(img)
        if len(distinct) == 4:
            c2 = center_by_corners.get(frozenset(distinct))
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


# ---------------------------------------------------------------------------
# Fiberwise data pushed into the total space
# ---------------------------------------------------------------------------

def refined_reidemeister(pair: BundleSelfMapPair, cls: TwistedClass,
                         depth: int) -> ShadowElement:
    """Pushforward of the fiber Reidemeister trace of the class's fiber map.

    The fiber map sends x to the end of the lift track of f_b(x) back
    along the class path.  It is lifted on each fiber component that
    ``fiber_composite`` keeps (the map on components is homotopy
    invariant), on the cover the pair builds once per component
    (``fiber_cover``); each component's trace is pushed into the total
    space with the correction word read off its first vertex's track,
    the whiskering that identifies a fiber fixed point with a
    total-space fixed point.
    """
    b = pair.bundle.base.basepoint
    fb = pair.base_map.vertex_images[b]
    gamma = pair.class_path(cls)
    back = invert_word(gamma)
    k_map = fiber_composite(pair, b, gamma)
    fiber = pair.bundle.fiber(b)
    fm = pair.fiber_maps[b].vertex_images
    total, f_total = pair.total
    lifted = pair.total_lift
    pe = lifted.complex.presentation
    te = total.complex
    result = ShadowElement.zero(pe.group, lifted.endo)
    for comp in fiber.components():
        comp_ids = set(fiber.vertices[i] for i in comp)
        if any(k_map.vertex_images[x] not in comp_ids for x in comp_ids):
            continue
        cover = pair.fiber_cover(comp)
        pf = cover.presentation
        sub = pf.complex
        tracks = {x: total.transport_track(back, fb, fm[x])
                  for x in sub.vertices}
        try:
            k_sub = SimplicialMap(sub, sub, {x: end for x, (_, end)
                                             in tracks.items()})
        except SimplicialError as exc:
            raise NotConstructibleError(
                f"lift tracks give no simplicial fiber map: {exc}")
        lifted_f = lift_map(k_sub, None, cover)
        r_comp = reidemeister_trace_chain(lifted_f, depth)
        x0 = sub.vertices[0]
        # the fiber component over b, included in the total space
        incl = SimplicialMap(sub, te, {x: ("v", b, x) for x in sub.vertices})
        # alpha: total-space tree path from the total basepoint to x0
        alpha = pe.tree_path(incl.apply_index(0))
        alpha_back = reverse_path(alpha)
        # iota on the surviving generators: fiber loops whiskered by alpha
        images = [pe.element_of_path(
            alpha + incl.map_path(pf.generator_loop(gi)) + alpha_back)
            for gi in pf.surviving]
        iota = GroupHomomorphism(pf.group, pe.group, images)
        # correction word: the total basepath, f_total(alpha), x0's track
        # to k(x0), then back along the fiber basepath and alpha
        track_path = tracks[x0][0]
        track = [(te.index[u], te.index[v])
                 for u, v in zip(track_path, track_path[1:])]
        word = (list(lifted.basepath) + f_total.map_path(alpha) + track
                + reverse_path(incl.map_path(lifted_f.basepath)) + alpha_back)
        pushed = pushforward(iota, lifted_f.endo, lifted.endo,
                             pe.element_of_path(word), r_comp, depth)
        result = result + pushed
    return result


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

class VerificationReport:
    """One statement's table, both sides, verdict and flags; ``key`` (the
    theorem by default) names the sides' entry in a report's lhs and rhs."""

    __slots__ = ("theorem", "rows", "lhs", "rhs", "verdict", "flags", "key")

    def __init__(self, theorem: str, rows: List[Dict], lhs, rhs,
                 verdict: str, flags: List[str], key: Optional[str] = None):
        self.theorem = theorem
        self.rows = rows
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = verdict  # "pass" | "fail" | "indeterminate"
        self.flags = flags
        self.key = key or theorem


def verify_lefschetz_mult(pair: BundleSelfMapPair,
                          depth: int) -> VerificationReport:
    """Check L(total map) against the index-weighted fiberwise values."""
    flags: List[str] = []
    _, tmap = pair.total
    lhs = lefschetz_number(tmap)
    rbar = pair.base_trace(depth)
    if rbar.has_heuristic:
        flags.append(f"heuristic base classes (depth {depth})")
    rows = []
    rhs = 0
    for cls, ind in rbar.items():
        value = lefschetz_number(fiber_composite(
            pair, pair.bundle.base.basepoint, pair.class_path(cls)))
        rows.append({"class": class_label(cls), "ind": ind,
                     "fiber_lefschetz": value})
        rhs += ind * value
    return VerificationReport(theorem="lefschetz", rows=rows, lhs=lhs,
                              rhs=rhs, verdict="pass" if lhs == rhs else "fail",
                              flags=flags)


def verify_reidemeister_mult(pair: BundleSelfMapPair,
                             depth: int) -> VerificationReport:
    """Check R(total map) against the pushed fiberwise Reidemeister data."""
    flags: List[str] = []
    lifted = pair.total_lift
    lhs = pair.total_trace(depth)
    rbar = pair.base_trace(depth)
    if rbar.has_heuristic:
        flags.append(f"heuristic base classes (depth {depth})")
    rows = []
    rhs = ShadowElement.zero(lifted.complex.group, lifted.endo)
    for cls, ind in rbar.items():
        pushed = pair.fiber_trace(cls, depth)
        rows.append({"class": class_label(cls), "ind": ind,
                     "fiber_reidemeister": shadow_rendering(pushed)})
        rhs = rhs + pushed.scale(ind)
    comparison = shadow_equal(lhs, rhs, depth)
    if comparison == UNKNOWN:
        verdict = "indeterminate"
        flags.append("class comparison returned Unknown")
    elif comparison == EQUAL:
        verdict = "pass"
    else:
        verdict = "fail"
    return VerificationReport(theorem="reidemeister", rows=rows,
                              lhs=shadow_rendering(lhs),
                              rhs=shadow_rendering(rhs),
                              verdict=verdict, flags=flags)


def nielsen_additivity(pair: BundleSelfMapPair,
                       depth: int) -> VerificationReport:
    """Nielsen number of the total map against the per-class counts.

    The rows hold each essential base class with its count, ``lhs`` is
    N(total) and ``rhs`` the sum of the counts, under the key
    ``nielsen``; raises IndeterminateError when any comparison is Unknown.
    """
    lhs = nielsen(pair.total_trace(depth), depth)
    rows = []
    rhs = 0
    # a heuristic key may split a base class; consolidating counts it once
    for cls, ind in pair.base_trace(depth).consolidated(depth).items():
        if ind == 0:
            continue
        count = nielsen(pair.fiber_trace(cls, depth), depth)
        rows.append({"class": class_label(cls), "count": count})
        rhs += count
    return VerificationReport(theorem="nielsen_additivity", rows=rows,
                              lhs=lhs, rhs=rhs,
                              verdict="pass" if lhs == rhs else "fail",
                              flags=[], key="nielsen")
