"""Fixture catalog: deterministic complexes, self-maps and bundle pairs.

Every entry builds its objects from scratch on each call.  The oracle
data some fixtures carry (the double cover's per-class table, total
Lefschetz and Nielsen numbers and fixed-point records, the Lefschetz
numbers of the product maps' factors) are hand counts that never call
the code paths they are used to check.  ``CATALOG`` holds
the entries that ``fixtrace catalog`` lists and emits, each with its
default parameters; the integer size parameters are checked against
fixed ranges before anything is built.  ``emit_document`` gives the text
``fixtrace catalog emit`` writes, and ``command`` runs ``fixtrace
catalog``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .bundles import (
    BundleSelfMapPair,
    DiscreteBundle,
    GraphBase,
    GraphSelfMap,
    Transport,
)
from .documents import InputError, serialize_complex, serialize_map_fixture
from .reidemeister import FixedPointRecord
from .simplicial import SimplicialComplex, SimplicialMap, build_complex


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------

def point_complex() -> SimplicialComplex:
    return build_complex([("p",)], vertices=["p"])


def circle_complex(n: int = 3) -> SimplicialComplex:
    verts = [str(i) for i in range(n)]
    return build_complex([(str(i), str((i + 1) % n)) for i in range(n)],
                         vertices=verts)


def figure_eight_complex() -> SimplicialComplex:
    verts = [str(i) for i in range(5)]
    edges = [("0", "1"), ("1", "2"), ("0", "2"), ("0", "3"), ("3", "4"),
             ("0", "4")]
    return build_complex(edges, vertices=verts)


def torus7_complex() -> SimplicialComplex:
    verts = [str(i) for i in range(7)]
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((str(i), str((i + 1) % 7), str((i + 3) % 7)),
                                  key=int)))
        faces.append(tuple(sorted((str(i), str((i + 2) % 7), str((i + 3) % 7)),
                                  key=int)))
    return build_complex(faces, vertices=verts)


def two_point_complex() -> SimplicialComplex:
    return build_complex([("0",), ("1",)], vertices=["0", "1"])


# ---------------------------------------------------------------------------
# Simplicial self-map fixtures
# ---------------------------------------------------------------------------

@dataclass
class SelfMapFixture:
    complex: SimplicialComplex
    map: SimplicialMap
    basepath: List[Tuple[int, int]]


def circle_reflection_fixture(n: int = 4) -> SelfMapFixture:
    """Reflection of an n-gon (n even); two fixed points, each of index one."""
    k = circle_complex(n)
    f = SimplicialMap(k, k, {str(i): str((-i) % n) for i in range(n)})
    return SelfMapFixture(complex=k, map=f, basepath=[])


# ---------------------------------------------------------------------------
# Circle degree-d dynamics over a graph base
# ---------------------------------------------------------------------------

def circle_base(n: int) -> GraphBase:
    verts = [f"b{i}" for i in range(n)]
    edges = [(f"e{i}", f"b{i}", f"b{(i + 1) % n}") for i in range(n)]
    tree = [f"e{i}" for i in range(n - 1)]
    return GraphBase(verts, edges, tree, "b0")


def degree_base_map(base: GraphBase, d: int) -> GraphSelfMap:
    """Self-map of the circle graph inducing multiplication by d."""
    n = len(base.vertices)
    vertex_images = {f"b{k}": f"b{(d * k) % n}" for k in range(n)}
    edge_words = {}
    for k in range(n):
        start = (d * k) % n
        word = []
        if d > 0:
            for i in range(d):
                word.append((f"e{(start + i) % n}", 1))
        elif d < 0:
            for i in range(-d):
                word.append((f"e{(start - 1 - i) % n}", -1))
        edge_words[f"e{k}"] = word
    return GraphSelfMap(base, vertex_images, edge_words)


def rotation_base_map(base: GraphBase) -> GraphSelfMap:
    n = len(base.vertices)
    vertex_images = {f"b{k}": f"b{(k + 1) % n}" for k in range(n)}
    edge_words = {f"e{k}": [(f"e{(k + 1) % n}", 1)] for k in range(n)}
    return GraphSelfMap(base, vertex_images, edge_words)


def point_fiber_bundle(base: GraphBase) -> DiscreteBundle:
    fibers = {v: point_complex() for v in base.vertices}
    ident = SimplicialMap(point_complex(), point_complex(), {"p": "p"})
    transports = {e: Transport(forward=ident, inverse=ident)
                  for (e, _, _) in base.edges}
    return DiscreteBundle(base, fibers, transports)


def circle_degree_pair(d: int, n: int = 4) -> BundleSelfMapPair:
    """Degree-d circle dynamics as a point-fiber bundle pair."""
    base = circle_base(n)
    bundle = point_fiber_bundle(base)
    bmap = degree_base_map(base, d)
    pt = point_complex()
    fiber_maps = {v: SimplicialMap(pt, pt, {"p": "p"}) for v in base.vertices}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


# ---------------------------------------------------------------------------
# Bundle fixtures
# ---------------------------------------------------------------------------

def _swap_map(f: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(f, f, {"0": "1", "1": "0"})


def double_cover_reflection_pair() -> BundleSelfMapPair:
    """Reflection of the circle covered by a map of its connected double cover.

    Base: square graph; fibers: two points; monodromy around the base is
    the sheet swap.  Over one fixed point of the base reflection the
    fiber map is the identity, over the other it is the transposition.
    The total map is the reflection of the covering circle.
    """
    base = circle_base(4)
    fib = two_point_complex()
    ident = SimplicialMap(fib, fib, {"0": "0", "1": "1"})
    swap = _swap_map(fib)
    transports = {
        "e0": Transport(ident, ident),
        "e1": Transport(ident, ident),
        "e2": Transport(ident, ident),
        "e3": Transport(swap, swap),
    }
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    vertex_images = {"b0": "b0", "b1": "b3", "b2": "b2", "b3": "b1"}
    edge_words = {
        "e0": [("e3", -1)],
        "e1": [("e2", -1)],
        "e2": [("e1", -1)],
        "e3": [("e0", -1)],
    }
    bmap = GraphSelfMap(base, vertex_images, edge_words)
    fiber_maps = {"b0": ident, "b1": swap, "b2": swap, "b3": swap}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def double_cover_oracle() -> Dict:
    return {
        "per_class": [{"ind": 1, "fiber_lefschetz": 2},
                      {"ind": 1, "fiber_lefschetz": 0}],
        "total_lefschetz": 2,
        "nielsen": 2,
        "records": [FixedPointRecord(index=1, class_witness=0),
                    FixedPointRecord(index=1, class_witness=1)],
    }


def _triangle_maps() -> Dict[str, Callable[[SimplicialComplex], SimplicialMap]]:
    def ident(k):
        return SimplicialMap(k, k, {v: v for v in k.vertices})

    def reflection(k):
        n = len(k.vertices)
        return SimplicialMap(k, k, {str(i): str((-i) % n) for i in range(n)})

    def constant(k):
        return SimplicialMap(k, k, {v: k.vertices[0] for v in k.vertices})

    def rotation(k):
        n = len(k.vertices)
        return SimplicialMap(k, k, {str(i): str((i + 1) % n) for i in range(n)})

    return {"identity": ident, "reflection": reflection, "constant": constant,
            "rotation": rotation}


def _base_maps(base: GraphBase) -> Dict[str, GraphSelfMap]:
    return {
        "identity": degree_base_map(base, 1),
        "reflection": degree_base_map(base, -1),
        "constant": degree_base_map(base, 0),
        "rotation": rotation_base_map(base),
    }


FIBER_LEFSCHETZ = {"identity": 0, "reflection": 2, "constant": 1,
                   "rotation": 0}
BASE_LEFSCHETZ = {"identity": 0, "reflection": 2, "constant": 1,
                  "rotation": 0}


def trivial_product_pair(base_map_name: str, fiber_map_name: str,
                         fiber_size: int = 3) -> BundleSelfMapPair:
    """Product bundle (circle base, circle fiber) with a product self-map."""
    base = circle_base(4)
    fib = circle_complex(fiber_size)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    base_maps, triangle_maps = _base_maps(base), _triangle_maps()
    for kind, name, known in (("base", base_map_name, base_maps),
                              ("fiber", fiber_map_name, triangle_maps)):
        if name not in known:
            raise ValueError(f"unknown {kind}_map {shown(name)}; known maps: "
                             f"{', '.join(sorted(known))}")
    bmap = base_maps[base_map_name]
    fmap = triangle_maps[fiber_map_name](fib)
    fiber_maps = {v: fmap for v in base.vertices}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def fixed_point_free_rotation_pair() -> BundleSelfMapPair:
    """Rotation base map on a trivial circle bundle: no fixed points at all."""
    return trivial_product_pair("rotation", "identity")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    name: str
    kind: str
    description: str
    build: Callable
    default_params: Dict = field(default_factory=dict)


CATALOG: Dict[str, CatalogEntry] = {}


def shown(value, limit: int = 40) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` characters."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _bounded(name: str, value, lo: int, hi: int, even: bool = False) -> int:
    """An integer size parameter, rejected when it is not an integer, lies
    outside [lo, hi] or (with ``even``) is odd, before anything is built."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not lo <= value <= hi or (even and value % 2)):
        what = "an even integer" if even else "an integer"
        raise ValueError(f"{name} must be {what} in [{lo}, {hi}], "
                         f"got {shown(value)}")
    return value


def _register(entry: CatalogEntry):
    CATALOG[entry.name] = entry
    return entry


_register(CatalogEntry(
    name="point", kind="complex", description="a single vertex",
    build=lambda: point_complex()))
_register(CatalogEntry(
    name="circle", kind="complex", description="n-gon circle",
    build=lambda n: circle_complex(_bounded("n", n, 3, 10000)),
    default_params={"n": 3}))
_register(CatalogEntry(
    name="figure_eight", kind="complex",
    description="wedge of two triangle circles",
    build=lambda: figure_eight_complex()))
_register(CatalogEntry(
    name="torus7", kind="complex",
    description="minimal 7-vertex torus triangulation",
    build=lambda: torus7_complex()))
_register(CatalogEntry(
    name="circle_reflection", kind="selfmap",
    description="reflection of a square circle; L = 2, N = 2",
    build=lambda n: circle_reflection_fixture(
        _bounded("n", n, 4, 10000, even=True)),
    default_params={"n": 4}))
_register(CatalogEntry(
    name="circle_degree_map", kind="bundle_pair",
    description="degree-d circle dynamics over a point fiber",
    build=lambda d: circle_degree_pair(_bounded("d", d, -1000, 1000)),
    default_params={"d": 2}))
_register(CatalogEntry(
    name="double_cover_reflection", kind="bundle_pair",
    description="connected double cover of the circle over a reflection",
    build=lambda: double_cover_reflection_pair()))
_register(CatalogEntry(
    name="trivial_product", kind="bundle_pair",
    description="product bundle with a product self-map",
    build=lambda base_map, fiber_map:
        trivial_product_pair(str(base_map), str(fiber_map)),
    default_params={"base_map": "reflection", "fiber_map": "reflection"}))
_register(CatalogEntry(
    name="fixed_point_free_rotation", kind="bundle_pair",
    description="rotation base map on a trivial circle bundle",
    build=lambda: fixed_point_free_rotation_pair()))


# ---------------------------------------------------------------------------
# Emitted documents
# ---------------------------------------------------------------------------

def emit_document(name: str, params: Dict) -> Tuple[str, str]:
    """File name and text of the document ``catalog emit`` writes for the
    entry ``name`` built with ``params`` over its defaults."""
    entry = CATALOG.get(name)
    if entry is None:
        raise InputError(f"unknown catalog entry {name!r}")
    for key in params:
        if key not in entry.default_params:
            raise InputError(
                f"catalog entry {name!r} has no parameter {shown(key)}")
    try:
        obj = entry.build(**{**entry.default_params, **params})
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot build {name!r}: {exc}")
    if entry.kind == "complex":
        return f"{name}.complex.json", json.dumps(
            serialize_complex(obj), indent=2) + "\n"
    if entry.kind == "selfmap":
        return f"{name}.map.json", json.dumps(
            serialize_map_fixture(obj), indent=2) + "\n"
    if entry.kind == "bundle_pair":
        from .pairs import serialize_pair
        return f"{name}.pair.json", json.dumps(
            serialize_pair(obj), indent=2) + "\n"
    raise InputError(f"catalog entry {name!r} has unknown kind")


def command(action: str, name, param_texts, out) -> None:
    """``fixtrace catalog list``, or ``fixtrace catalog emit`` of the entry
    ``name`` with its ``--param key=value`` texts, to stdout or into the
    directory ``out``."""
    if action == "list":
        for key in sorted(CATALOG):
            entry = CATALOG[key]
            sys.stdout.write(f"{key}\t{entry.kind}\t{entry.description}\n")
        return
    if name is None:
        raise InputError("catalog emit requires a fixture name")
    params = {}
    for p in param_texts:
        if "=" not in p:
            raise InputError(f"bad --param {shown(p)}; use key=value")
        key, value = p.split("=", 1)
        try:
            params[key] = json.loads(value)
        except (ValueError, RecursionError):
            # not JSON, too deeply nested, or an integer past the
            # interpreter's digit limit: the value is the raw text
            params[key] = value
    filename, text = emit_document(name, params)
    if out:
        path = os.path.join(out, filename)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}")
        text = path + "\n"
    sys.stdout.write(text)
