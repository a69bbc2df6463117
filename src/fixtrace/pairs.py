"""Graph-base, bundle and bundle-pair documents.

Only ``bundle-verify`` and ``catalog emit`` of a bundle pair load this
module.  A pair document names the bundle, the base map and the fiber
maps; the total map is always built from them.  The readers check the
kind of every value, and that every fiber, transport and fiber map is
present, before they build anything, so the constructors are left only
the checks that need the graph or the maps themselves; they raise
``BundleError`` or ``SimplicialError``, which the readers report as
input errors.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .bundles import (
    BundleError,
    BundleSelfMapPair,
    DiscreteBundle,
    GraphBase,
    GraphSelfMap,
    Transport,
)
from .documents import (
    InputError,
    json_fields,
    json_name,
    json_names,
    json_object,
    json_sign,
    json_steps,
    json_vertex_images,
    parse_complex,
    serialize_complex,
)
from .simplicial import SimplicialError, SimplicialMap


def serialize_graph_base(base: GraphBase) -> Dict:
    return {
        "vertices": [str(v) for v in base.vertices],
        "edges": [{"id": e, "src": str(s), "dst": str(d)}
                  for (e, s, d) in base.edges],
        "tree": list(base.tree),
        "basepoint": str(base.basepoint),
    }


def _base_edge(e, i: int) -> Tuple:
    """(id, src, dst) of the ``i``-th base edge, an object of names; a
    message names the edge by its id when that is a string."""
    eid = e.get("id") if isinstance(e, dict) else None
    what = f"base edge {eid if isinstance(eid, str) else i}"
    json_fields(e, what, ("id", "src", "dst"), ())
    return tuple(json_name(e[key], f"{what} {key}")
                 for key in ("id", "src", "dst"))


def parse_graph_base(doc: Dict) -> GraphBase:
    json_fields(doc, "base document",
                ("vertices", "edges", "tree", "basepoint"), ())
    vertices = json_names(doc["vertices"], "base vertices")
    if not isinstance(doc["edges"], list):
        raise InputError("base edges must be an array")
    edges = [_base_edge(e, i) for i, e in enumerate(doc["edges"])]
    tree = json_names(doc["tree"], "base tree")
    basepoint = json_name(doc["basepoint"], "base basepoint")
    try:
        return GraphBase(vertices, edges, tree, basepoint)
    except BundleError as exc:
        raise InputError(f"invalid base graph: {exc}")


def _serialize_simplicial_map(f: SimplicialMap) -> Dict:
    return {"vertex_images": {str(v): str(f.vertex_images[v])
                              for v in f.source.vertices}}


def serialize_bundle(bundle: DiscreteBundle) -> Dict:
    return {
        "base": serialize_graph_base(bundle.base),
        "fibers": {str(v): serialize_complex(bundle.fiber(v))
                   for v in bundle.base.vertices},
        "transports": {e: {"map": _serialize_simplicial_map(t.forward),
                           "inverse": _serialize_simplicial_map(t.inverse)}
                       for e, t in sorted(bundle.transports.items())},
    }


def _map_images(doc, what: str) -> Dict:
    """The vertex images of the map object ``doc``, its one field."""
    doc = json_fields(doc, what, ("vertex_images",), ())
    return json_vertex_images(doc["vertex_images"], what)


def _only_keys(doc, names, what: str, kind: str) -> Dict:
    """The JSON object ``doc``, if each of its keys is one of ``names``."""
    for key in json_object(doc, what):
        if key not in names:
            raise InputError(f"{what}: {key!r} names no base {kind}")
    return doc


def parse_bundle(doc: Dict) -> DiscreteBundle:
    json_fields(doc, "bundle document", ("base", "fibers", "transports"), ())
    base = parse_graph_base(doc["base"])
    fiber_docs = _only_keys(doc["fibers"], {str(v) for v in base.vertices},
                            "bundle fibers", "vertex")
    fibers = {}
    for v in base.vertices:
        if str(v) not in fiber_docs:
            raise InputError(f"bundle document has no fiber over {v!r}")
        fibers[v] = parse_complex(fiber_docs[str(v)])
    transport_docs = _only_keys(doc["transports"], base.edge_by_id,
                                "bundle transports", "edge")
    transports = {}
    for (e, s, d) in base.edges:
        tdoc = transport_docs.get(e)
        if tdoc is None:
            raise InputError(f"bundle document has no transport for edge {e}")
        tdoc = json_fields(tdoc, f"transport over {e}", ("map", "inverse"), ())
        fwd_images = _map_images(tdoc["map"], f"transport map over {e}")
        inv_images = _map_images(tdoc["inverse"], f"transport inverse over {e}")
        try:
            fwd = SimplicialMap(fibers[s], fibers[d], fwd_images)
            inv = SimplicialMap(fibers[d], fibers[s], inv_images)
        except SimplicialError as exc:
            raise InputError(f"invalid transport over {e}: {exc}")
        transports[e] = Transport(forward=fwd, inverse=inv)
    try:
        return DiscreteBundle(base, fibers, transports)
    except BundleError as exc:
        raise InputError(f"invalid bundle: {exc}")


def serialize_pair(pair: BundleSelfMapPair) -> Dict:
    base = pair.bundle.base
    return {
        "bundle": serialize_bundle(pair.bundle),
        "base_map": {
            "vertex_images": {str(v): str(pair.base_map.vertex_images[v])
                              for v in base.vertices},
            "edge_words": {e: [[x, s] for (x, s) in
                               pair.base_map.edge_words[e]]
                           for (e, _, _) in base.edges},
            "basepath": [[e, s] for (e, s) in pair.basepath],
        },
        "fiber_maps": {str(v): _serialize_simplicial_map(pair.fiber_maps[v])
                       for v in base.vertices},
    }


def parse_pair(doc: Dict) -> BundleSelfMapPair:
    json_fields(doc, "pair document", ("bundle", "base_map", "fiber_maps"), ())
    bundle = parse_bundle(doc["bundle"])
    base = bundle.base
    bm = json_fields(doc["base_map"], "base map", ("vertex_images",),
                     ("edge_words", "basepath"))
    vertex_images = json_vertex_images(bm["vertex_images"], "base map")
    edge_words = {
        e: [(x, json_sign(s, "base map edge word sign"))
            for (x, s) in json_steps(word, f"base map edge word of {e}")]
        for e, word in json_object(bm.get("edge_words", {}),
                                   "base map edge words").items()}
    try:
        base_map = GraphSelfMap(base, vertex_images, edge_words)
    except BundleError as exc:
        raise InputError(f"invalid base map: {exc}")
    fiber_map_docs = _only_keys(doc["fiber_maps"],
                                {str(v) for v in base.vertices},
                                "pair fiber maps", "vertex")
    fiber_maps = {}
    for v in base.vertices:
        fdoc = fiber_map_docs.get(str(v))
        if fdoc is None:
            raise InputError(f"pair document has no fiber map over {v!r}")
        fv = base_map.vertex_images[v]
        images = _map_images(fdoc, f"fiber map over {v!r}")
        try:
            fiber_maps[v] = SimplicialMap(bundle.fiber(v), bundle.fiber(fv),
                                          images)
        except SimplicialError as exc:
            raise InputError(f"invalid fiber map over {v!r}: {exc}")
    # a basepath that is present must be a path, null included
    basepath = None
    if "basepath" in bm:
        basepath = [(e, json_sign(s, "base map basepath sign")) for (e, s)
                    in json_steps(bm["basepath"], "base map basepath")]
    try:
        return BundleSelfMapPair(bundle, base_map, fiber_maps,
                                 basepath=basepath)
    except BundleError as exc:
        raise InputError(f"invalid pair: {exc}")
