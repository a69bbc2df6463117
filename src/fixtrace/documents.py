"""Complex and self-map documents, and the checks every document reader uses.

Documents are JSON values with a fixed field order.  A reader rejects a
malformed document with :class:`InputError`, which the command line maps
to exit code 2.  Besides ``simplicial`` this module imports no layer: a
complex given as ``{"ref": <catalog name>}`` loads ``catalog`` when it is
read.  The bundle-pair formats are in ``pairs``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Tuple

from . import simplicial
from .simplicial import SimplicialComplex, SimplicialError, SimplicialMap

if TYPE_CHECKING:
    from .catalog import SelfMapFixture


class InputError(ValueError):
    pass


def json_object(doc, what: str) -> Dict:
    """``doc`` itself, if it is a JSON object; otherwise an input error."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    return doc


def json_fields(doc, what: str, required, optional=None) -> Dict:
    """The JSON object ``doc``, if it has each ``required`` field and, where
    ``optional`` is given, no field outside the two."""
    json_object(doc, what)
    for field in required:
        if field not in doc:
            raise InputError(f"{what} is missing field {field!r}")
    for key in () if optional is None else doc:
        if key not in required and key not in optional:
            raise InputError(f"{what} has unknown field {key!r}")
    return doc


def json_integer(x, what: str) -> int:
    """``x`` itself, if it is a JSON integer; ``true``, 1.0 and "1" are not."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


def json_sign(x, what: str) -> int:
    """``x`` itself, if it is the JSON integer 1 or -1."""
    if json_integer(x, what) not in (1, -1):
        raise InputError(f"{what} must be 1 or -1, got {x}")
    return x


def _is_name(x) -> bool:
    """Whether a JSON value can name a vertex or an edge (not a list or object)."""
    return not isinstance(x, (list, dict))


def json_vertex_images(doc, what: str) -> Dict:
    """The ``vertex_images`` object of the map document ``doc``."""
    doc = json_fields(doc, what, ("vertex_images",))
    images = json_object(doc["vertex_images"], f"{what} vertex_images")
    if not all(_is_name(w) for w in images.values()):
        raise InputError(f"{what} vertex images must be vertex names")
    return images


def json_steps(raw, what: str) -> List:
    """A path given as a list of two-element steps whose first entry is a name."""
    if not isinstance(raw, list) or not all(
            isinstance(step, list) and len(step) == 2 and _is_name(step[0])
            for step in raw):
        raise InputError(f"{what} must be a list of two-element steps")
    return raw


def serialize_complex(k: SimplicialComplex) -> Dict:
    return {
        "vertices": [str(v) for v in k.vertices],
        "simplices": [[str(v) for v in k.vertex_ids(s)]
                      for s in k.maximal_simplices()],
    }


def parse_complex(doc: Dict) -> SimplicialComplex:
    json_fields(doc, "complex document", ("vertices", "simplices"))
    try:
        # looked up on the module at each call, where bench/tracer.py
        # wraps it as the simplicial.complex span
        return simplicial.build_complex([tuple(s) for s in doc["simplices"]],
                                        vertices=list(doc["vertices"]))
    except (SimplicialError, TypeError) as exc:
        raise InputError(f"invalid complex: {exc}")


def serialize_map_fixture(fix: SelfMapFixture) -> Dict:
    k = fix.complex
    return {
        "complex": serialize_complex(k),
        "vertex_images": {str(v): str(fix.map.vertex_images[v])
                          for v in k.vertices},
        "basepath": [[str(k.vertices[a]), str(k.vertices[b])]
                     for (a, b) in fix.basepath],
    }


def _resolve_complex_doc(doc) -> SimplicialComplex:
    """Inline complex document, or {"ref": <catalog name>}."""
    if isinstance(doc, dict) and set(doc.keys()) == {"ref"}:
        from . import catalog as cat
        entry = cat.CATALOG.get(doc["ref"])
        if entry is None or entry.kind != "complex":
            raise InputError(f"unknown complex reference {doc['ref']!r}")
        return entry.build(**entry.default_params)
    return parse_complex(doc)


def parse_map(doc: Dict) -> Tuple[SimplicialComplex, SimplicialMap,
                                  List[Tuple[int, int]], Dict]:
    json_fields(doc, "map document", ("complex", "vertex_images"),
                ("basepath", "fixed_point_records"))
    k = _resolve_complex_doc(doc["complex"])
    try:
        f = SimplicialMap(k, k, json_vertex_images(doc, "map document"))
    except SimplicialError as exc:
        raise InputError(f"invalid self-map: {exc}")
    basepath = []
    for u, v in json_steps(doc.get("basepath", []), "basepath"):
        if not _is_name(v) or u not in k.index or v not in k.index:
            raise InputError(f"basepath step {[u, v]} uses unknown vertices")
        basepath.append((k.index[u], k.index[v]))
    return k, f, basepath, doc
