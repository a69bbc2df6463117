"""Graph-base, bundle and bundle-pair documents.

Only ``bundle-verify`` and ``catalog emit`` of a bundle pair load this
module.  A pair document may carry the total map, with each total-space
vertex written as its parts joined by ``|``.
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


def parse_graph_base(doc: Dict) -> GraphBase:
    json_fields(doc, "base document",
                ("vertices", "edges", "tree", "basepoint"))
    try:
        return GraphBase(list(doc["vertices"]),
                         [(e["id"], e["src"], e["dst"]) for e in doc["edges"]],
                         list(doc["tree"]), doc["basepoint"])
    except (BundleError, KeyError, TypeError) as exc:
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
        tdoc = json_object(tdoc, f"transport over {e}")
        fwd_images = json_vertex_images(tdoc.get("map"),
                                        f"transport map over {e}")
        inv_images = json_vertex_images(tdoc.get("inverse"),
                                    f"transport inverse over {e}")
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


def encode_total_vertex(v: Tuple) -> str:
    return "|".join(str(part) for part in v)


def decode_total_vertex(s: str) -> Tuple:
    parts = s.split("|")
    if parts[0] == "c":
        return ("c", parts[1], int(parts[2]), parts[3], parts[4])
    return tuple(parts)


def serialize_pair(pair: BundleSelfMapPair) -> Dict:
    base = pair.bundle.base
    doc = {
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
    if pair.total_map_images is not None:
        doc["total_map"] = {
            "vertex_images": {encode_total_vertex(k): encode_total_vertex(w)
                              for k, w in sorted(
                                  pair.total_map_images.items(),
                                  key=lambda kv: encode_total_vertex(kv[0]))}}
    return doc


def parse_pair(doc: Dict) -> BundleSelfMapPair:
    json_fields(doc, "pair document", ("bundle", "base_map", "fiber_maps"),
                ("total_map",))
    bundle = parse_bundle(doc["bundle"])
    base = bundle.base
    bm = json_object(doc["base_map"], "base map")
    try:
        base_map = GraphSelfMap(
            base, dict(bm["vertex_images"]),
            {e: [(x, json_sign(s, "edge word sign")) for (x, s) in words]
             for e, words in json_object(bm.get("edge_words", {}),
                                     "base map edge words").items()})
    except (BundleError, KeyError, TypeError, ValueError) as exc:
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
        images = json_vertex_images(fdoc, f"fiber map over {v!r}")
        try:
            fiber_maps[v] = SimplicialMap(bundle.fiber(v), bundle.fiber(fv),
                                          images)
        except SimplicialError as exc:
            raise InputError(f"invalid fiber map over {v!r}: {exc}")
    raw_basepath = bm.get("basepath")
    steps = (None if raw_basepath is None
             else json_steps(raw_basepath, "base map basepath"))
    basepath = None if steps is None else [
        (e, json_sign(s, "basepath sign")) for (e, s) in steps]
    total_images = None
    if "total_map" in doc:
        try:
            total_images = {
                decode_total_vertex(k): decode_total_vertex(w)
                for k, w in doc["total_map"]["vertex_images"].items()}
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            raise InputError(f"invalid total map: {exc!r}")
    try:
        return BundleSelfMapPair(bundle, base_map, fiber_maps,
                                 basepath=basepath,
                                 total_map_images=total_images)
    except BundleError as exc:
        raise InputError(f"invalid pair: {exc}")
