"""Command-line interface and bit-exact document formats.

All inputs and outputs are UTF-8 JSON documents with a fixed field
order, so identical inputs produce byte-identical reports.  Exit codes:
0 success / verification pass, 1 verification fail, 2 input error,
3 unsupported or indeterminate.

Only the homology layers (``exactalg``, ``simplicial`` and ``words``) are
imported with this module.  The group-ring, Reidemeister, bundle and
catalog layers are imported by the commands and parsers that use them,
once per command.  No command loads OpenSSL: the ``inputs_digest`` SHA-256
comes from the interpreter's built-in module (``_sha2`` on CPython 3.12+,
``_sha256`` before), and ``hashlib`` only when neither was built.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .exactalg import hopf_chain_trace, homology, lefschetz_from_homology
from .simplicial import (
    SimplicialComplex,
    SimplicialError,
    SimplicialMap,
    build_complex,
    chain_complex,
    induced_chain_map,
    lefschetz_number,
)

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:
    from .bundles import BundleSelfMapPair, DiscreteBundle, GraphBase
    from .catalog import SelfMapFixture
    from .reidemeister import FixedPointRecord

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


class InputError(ValueError):
    pass


def _object(doc, what: str) -> Dict:
    """``doc`` itself, if it is a JSON object; otherwise an input error."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    return doc


def _integer(x, what: str) -> int:
    """``x`` itself, if it is a JSON integer; ``true``, 1.0 and "1" are not."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {json.dumps(x)}")
    return x


def _sign(x, what: str) -> int:
    """``x`` itself, if it is the JSON integer 1 or -1."""
    if _integer(x, what) not in (1, -1):
        raise InputError(f"{what} must be 1 or -1, got {x}")
    return x


def _is_name(x) -> bool:
    """Whether a JSON value can name a vertex or an edge (not a list or object)."""
    return not isinstance(x, (list, dict))


def _vertex_images(doc, what: str) -> Dict:
    """The ``vertex_images`` object of the map document ``doc``."""
    doc = _object(doc, what)
    if "vertex_images" not in doc:
        raise InputError(f"{what} is missing field 'vertex_images'")
    images = _object(doc["vertex_images"], f"{what} vertex_images")
    if not all(_is_name(w) for w in images.values()):
        raise InputError(f"{what} vertex images must be vertex names")
    return images


def _steps(raw, what: str) -> List:
    """A path given as a list of two-element steps whose first entry is a name."""
    if not isinstance(raw, list) or not all(
            isinstance(step, list) and len(step) == 2 and _is_name(step[0])
            for step in raw):
        raise InputError(f"{what} must be a list of two-element steps")
    return raw


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_complex(k: SimplicialComplex) -> Dict:
    return {
        "vertices": [str(v) for v in k.vertices],
        "simplices": [[str(v) for v in k.vertex_ids(s)]
                      for s in k.maximal_simplices()],
    }


def parse_complex(doc: Dict) -> SimplicialComplex:
    _object(doc, "complex document")
    for field in ("vertices", "simplices"):
        if field not in doc:
            raise InputError(f"complex document is missing field {field!r}")
    try:
        return build_complex([tuple(s) for s in doc["simplices"]],
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
    _object(doc, "map document")
    for field in ("complex", "vertex_images"):
        if field not in doc:
            raise InputError(f"map document is missing field {field!r}")
    k = _resolve_complex_doc(doc["complex"])
    try:
        f = SimplicialMap(k, k, _vertex_images(doc, "map document"))
    except SimplicialError as exc:
        raise InputError(f"invalid self-map: {exc}")
    basepath = []
    for u, v in _steps(doc.get("basepath", []), "basepath"):
        if not _is_name(v) or u not in k.index or v not in k.index:
            raise InputError(f"basepath step {[u, v]} uses unknown vertices")
        basepath.append((k.index[u], k.index[v]))
    return k, f, basepath, doc


def serialize_graph_base(base: GraphBase) -> Dict:
    return {
        "vertices": [str(v) for v in base.vertices],
        "edges": [{"id": e, "src": str(s), "dst": str(d)}
                  for (e, s, d) in base.edges],
        "tree": list(base.tree),
        "basepoint": str(base.basepoint),
    }


def parse_graph_base(doc: Dict) -> GraphBase:
    from .bundles import BundleError, GraphBase
    _object(doc, "base document")
    for field in ("vertices", "edges", "tree", "basepoint"):
        if field not in doc:
            raise InputError(f"base document is missing field {field!r}")
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


def parse_bundle(doc: Dict) -> DiscreteBundle:
    from .bundles import BundleError, DiscreteBundle, Transport
    _object(doc, "bundle document")
    for field in ("base", "fibers", "transports"):
        if field not in doc:
            raise InputError(f"bundle document is missing field {field!r}")
    base = parse_graph_base(doc["base"])
    fiber_docs = _object(doc["fibers"], "bundle fibers")
    fibers = {}
    for v in base.vertices:
        if str(v) not in fiber_docs:
            raise InputError(f"bundle document has no fiber over {v!r}")
        fibers[v] = parse_complex(fiber_docs[str(v)])
    transport_docs = _object(doc["transports"], "bundle transports")
    transports = {}
    for (e, s, d) in base.edges:
        tdoc = transport_docs.get(e)
        if tdoc is None:
            raise InputError(f"bundle document has no transport for edge {e}")
        tdoc = _object(tdoc, f"transport over {e}")
        fwd_images = _vertex_images(tdoc.get("map"), f"transport map over {e}")
        inv_images = _vertex_images(tdoc.get("inverse"),
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
    from .bundles import BundleError, BundleSelfMapPair, GraphSelfMap
    _object(doc, "pair document")
    for field in ("bundle", "base_map", "fiber_maps"):
        if field not in doc:
            raise InputError(f"pair document is missing field {field!r}")
    bundle = parse_bundle(doc["bundle"])
    base = bundle.base
    bm = _object(doc["base_map"], "base map")
    try:
        base_map = GraphSelfMap(
            base, dict(bm["vertex_images"]),
            {e: [(x, _sign(s, "edge word sign")) for (x, s) in words]
             for e, words in _object(bm.get("edge_words", {}),
                                     "base map edge words").items()})
    except (BundleError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid base map: {exc}")
    fiber_map_docs = _object(doc["fiber_maps"], "pair fiber maps")
    fiber_maps = {}
    for v in base.vertices:
        fdoc = fiber_map_docs.get(str(v))
        if fdoc is None:
            raise InputError(f"pair document has no fiber map over {v!r}")
        fv = base_map.vertex_images[v]
        images = _vertex_images(fdoc, f"fiber map over {v!r}")
        try:
            fiber_maps[v] = SimplicialMap(bundle.fiber(v), bundle.fiber(fv),
                                          images)
        except SimplicialError as exc:
            raise InputError(f"invalid fiber map over {v!r}: {exc}")
    raw_basepath = bm.get("basepath")
    steps = (None if raw_basepath is None
             else _steps(raw_basepath, "base map basepath"))
    basepath = None if steps is None else [
        (e, _sign(s, "basepath sign")) for (e, s) in steps]
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


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return _sha256(data).hexdigest()


def render_report(command: str, digest: str, tables: List, lhs, rhs,
                  verdict: str, flags: List[str], parameters: Optional[Dict] = None
                  ) -> str:
    doc = {
        "command": command,
        "inputs_digest": digest,
        "parameters": parameters or {},
        "tables": tables,
        "lhs": lhs,
        "rhs": rhs,
        "verdict": verdict,
        "flags": flags,
    }
    return json.dumps(doc, indent=2) + "\n"


_EXIT_OF_VERDICT = {"pass": EXIT_OK, "fail": EXIT_FAIL,
                    "indeterminate": EXIT_UNSUPPORTED,
                    "unsupported": EXIT_UNSUPPORTED}


def _report(command: str, digest: str, tables: List, lhs, rhs, verdict: str,
            flags: List[str], parameters: Optional[Dict] = None) -> int:
    """Write the report to stdout and return the exit code of its verdict."""
    sys.stdout.write(render_report(command, digest, tables, lhs, rhs, verdict,
                                   flags, parameters))
    return _EXIT_OF_VERDICT[verdict]


def _read_input(path: str) -> Tuple[Dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: not valid UTF-8 JSON ({exc})")
    return doc, _digest(raw)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_homology(args) -> int:
    doc, digest = _read_input(args.input)
    k = parse_complex(doc)
    h = homology(chain_complex(k))
    tables = [{
        "degree": i,
        "betti": h.betti[i],
        "torsion": list(h.torsion[i]),
    } for i in range(len(h.betti))]
    return _report(
        "homology", digest, tables,
        lhs={"euler_characteristic": k.euler_characteristic()},
        rhs={"euler_characteristic": h.euler_characteristic()},
        verdict="pass", flags=[])


def cmd_lefschetz(args) -> int:
    doc, digest = _read_input(args.input)
    k, f, basepath, _ = parse_map(doc)
    m = induced_chain_map(f)
    chain_value = hopf_chain_trace(m)
    homology_value = lefschetz_from_homology(m)
    verdict = "pass" if chain_value == homology_value else "fail"
    tables = [{"route": "chain", "value": chain_value},
              {"route": "homology", "value": homology_value}]
    return _report("lefschetz", digest, tables, lhs=chain_value,
                   rhs=homology_value, verdict=verdict, flags=[])


def _parse_records(doc: Dict, group) -> Optional[List[FixedPointRecord]]:
    from .reidemeister import FixedPointRecord
    raw = doc.get("fixed_point_records")
    if raw is None:
        return None
    records = []
    try:
        for r in raw:
            witness = r["witness"]
            if group.kind == "free_abelian":
                witness = tuple(_integer(x, "witness entry") for x in witness)
            else:
                witness = tuple((_integer(g, "witness generator"),
                                 _integer(e, "witness exponent"))
                                for g, e in witness)
            records.append(FixedPointRecord(label=r.get("label"),
                                            index=_integer(r["index"],
                                                           "fixed point index"),
                                            class_witness=witness))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid fixed_point_records: {exc!r}")
    return records


def cmd_reidemeister(args) -> int:
    from .grouprings import (
        DEFAULT_DEPTH,
        EQUAL,
        UNKNOWN,
        IndeterminateError,
        augment,
        class_label,
        nielsen,
        shadow_equal,
        shadow_rendering,
    )
    from .reidemeister import (
        UnsupportedComplexError,
        lift_self_map,
        reidemeister_trace_geometric,
    )
    doc, digest = _read_input(args.input)
    k, f, basepath, raw = parse_map(doc)
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    parameters = {"depth": depth}
    flags: List[str] = []
    try:
        lifted = lift_self_map(k, f, basepath=basepath or None)
    except UnsupportedComplexError as exc:
        return _report("reidemeister", digest, [], lhs=None, rhs=None,
                       verdict="unsupported", flags=[str(exc)],
                       parameters=parameters)
    trace = lifted.trace(depth)
    group = lifted.presentation.group
    if trace.has_heuristic:
        flags.append(f"heuristic classes (depth {depth})")
    tables = [{"class": class_label(cls), "coefficient": c,
               "certain": cls.is_certain}
              for cls, c in trace.items()]
    aug = augment(trace)
    chain_l = lefschetz_number(f)
    verdict = "pass" if aug == chain_l else "fail"
    try:
        n = nielsen(trace, depth)
    except IndeterminateError:
        return _report(
            "reidemeister", digest, tables,
            lhs=shadow_rendering(trace), rhs=None,
            verdict="indeterminate",
            flags=flags + ["nielsen count depends on an Unknown comparison"],
            parameters=parameters)
    records = _parse_records(raw, group)
    geometric = None
    if records is not None:
        geo = reidemeister_trace_geometric(records, group, lifted.endo, depth)
        geometric = shadow_rendering(geo)
        cmp = shadow_equal(trace, geo, depth)
        if cmp == UNKNOWN:
            flags.append("route comparison returned Unknown")
            verdict = "indeterminate"
        elif cmp != EQUAL:
            verdict = "fail"
    summary = {
        "classes": shadow_rendering(trace),
        "nielsen": n,
        "augmentation": aug,
        "lefschetz": chain_l,
    }
    if geometric is not None:
        summary["geometric"] = geometric
    return _report(
        "reidemeister", digest, tables, lhs=summary,
        rhs={"augmentation_equals_lefschetz": aug == chain_l},
        verdict=verdict, flags=flags, parameters=parameters)


def cmd_bundle_verify(args) -> int:
    from .bundles import (
        NotConstructibleError,
        nielsen_additivity,
        verify_lefschetz_mult,
        verify_reidemeister_mult,
    )
    from .grouprings import DEFAULT_DEPTH, IndeterminateError
    from .reidemeister import UnsupportedComplexError
    doc, digest = _read_input(args.input)
    pair = parse_pair(doc)
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    parameters = {"theorem": args.theorem, "depth": depth}
    tables = []
    flags: List[str] = []
    verdicts = []
    lhs: Dict = {}
    rhs: Dict = {}
    try:
        if args.theorem in ("lefschetz", "both"):
            rep = verify_lefschetz_mult(pair, depth)
            tables.append({"theorem": "lefschetz", "rows": rep.rows})
            lhs["lefschetz"] = rep.lhs
            rhs["lefschetz"] = rep.rhs
            flags.extend(f for f in rep.flags if f not in flags)
            verdicts.append(rep.verdict)
        if args.theorem in ("reidemeister", "both"):
            rep = verify_reidemeister_mult(pair, depth)
            tables.append({"theorem": "reidemeister", "rows": rep.rows})
            lhs["reidemeister"] = rep.lhs
            rhs["reidemeister"] = rep.rhs
            flags.extend(f for f in rep.flags if f not in flags)
            verdicts.append(rep.verdict)
            if rep.verdict == "pass":
                n_total, n_sum, per_class = nielsen_additivity(pair, depth)
                tables.append({"theorem": "nielsen_additivity",
                               "rows": [{"class": c, "count": n}
                                        for c, n in per_class]})
                lhs["nielsen"] = n_total
                rhs["nielsen"] = n_sum
                verdicts.append("pass" if n_total == n_sum else "fail")
    except (UnsupportedComplexError, NotConstructibleError,
            IndeterminateError) as exc:
        return _report(
            "bundle_verify", digest, tables, lhs=lhs or None, rhs=rhs or None,
            verdict=("indeterminate" if isinstance(exc, IndeterminateError)
                     else "unsupported"),
            flags=flags + [str(exc)], parameters=parameters)
    if any(v == "fail" for v in verdicts):
        verdict = "fail"
    elif any(v == "indeterminate" for v in verdicts):
        verdict = "indeterminate"
    else:
        verdict = "pass"
    return _report("bundle_verify", digest, tables, lhs=lhs, rhs=rhs,
                   verdict=verdict, flags=flags, parameters=parameters)


def _emit_document(name: str, params: Dict) -> Tuple[str, str]:
    from . import catalog as cat
    entry = cat.CATALOG.get(name)
    if entry is None:
        raise InputError(f"unknown catalog entry {name!r}")
    for key in params:
        if key not in entry.default_params:
            raise InputError(
                f"catalog entry {name!r} has no parameter {cat.shown(key)}")
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
        return f"{name}.pair.json", json.dumps(
            serialize_pair(obj), indent=2) + "\n"
    raise InputError(f"catalog entry {name!r} has unknown kind")


def cmd_catalog(args) -> int:
    from . import catalog as cat
    if args.action == "list":
        for name in sorted(cat.CATALOG):
            entry = cat.CATALOG[name]
            sys.stdout.write(f"{name}\t{entry.kind}\t{entry.description}\n")
        return EXIT_OK
    if args.name is None:
        raise InputError("catalog emit requires a fixture name")
    params = {}
    for p in args.param or []:
        if "=" not in p:
            raise InputError(f"bad --param {cat.shown(p)}; use key=value")
        key, value = p.split("=", 1)
        try:
            params[key] = json.loads(value)
        except (ValueError, RecursionError):
            # not JSON, too deeply nested, or an integer past the
            # interpreter's digit limit: the value is the raw text
            params[key] = value
    filename, text = _emit_document(args.name, params)
    if args.out:
        import os
        path = os.path.join(args.out, filename)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}")
        sys.stdout.write(path + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def nonnegative_int(text: str) -> int:
    """Argument type of ``--depth``: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"depth must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixtrace",
        description="exact fixed-point invariants for simplicial complexes "
                    "and discrete fiber bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="betti numbers and torsion")
    p.add_argument("input")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("lefschetz", help="Lefschetz number of a self-map")
    p.add_argument("input")
    p.set_defaults(func=cmd_lefschetz)

    p = sub.add_parser("reidemeister",
                       help="Reidemeister trace / Nielsen number")
    p.add_argument("input")
    p.add_argument("--depth", type=nonnegative_int)
    p.set_defaults(func=cmd_reidemeister)

    p = sub.add_parser("bundle-verify",
                       help="verify the factorization theorems on a pair")
    p.add_argument("input")
    p.add_argument("--theorem", choices=["lefschetz", "reidemeister", "both"],
                   default="both")
    p.add_argument("--depth", type=nonnegative_int)
    p.set_defaults(func=cmd_bundle_verify)

    p = sub.add_parser("catalog", help="list or emit bundled fixtures")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)
    return parser


# The errors main maps to exit codes, as (defining module, class name).  A
# module that was never loaded raised none of its errors, so main looks
# only in the loaded ones and loads none itself.
_UNSUPPORTED_ERRORS = (("reidemeister", "UnsupportedComplexError"),
                       ("grouprings", "IndeterminateError"),
                       ("bundles", "NotConstructibleError"))
_INPUT_ERRORS = (("simplicial", "SimplicialError"),
                 ("exactalg", "ExactAlgError"),
                 ("bundles", "BundleError"),
                 ("words", "GroupError"))


def _loaded(errors) -> Tuple[type, ...]:
    """The classes among ``errors`` whose defining modules are loaded."""
    found = []
    for module, name in errors:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            found.append(getattr(loaded, name))
    return tuple(found)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except _loaded(_UNSUPPORTED_ERRORS) as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except _loaded(_INPUT_ERRORS) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
