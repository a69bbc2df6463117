"""Command-line interface: argument parsing, the five commands and their reports.

All inputs and outputs are UTF-8 JSON documents with a fixed field
order, so identical inputs produce byte-identical reports.  Exit codes:
0 success / verification pass, 1 verification fail, 2 input error,
3 unsupported or indeterminate.

Only the homology layers (``exactalg`` and ``simplicial``) and the
complex and map documents (``documents``) are imported with this module.
The presentation, group-ring, Reidemeister, bundle, bundle-pair format
(``pairs``) and catalog layers are imported by the commands and parsers
that use them, once per command.  No command loads OpenSSL: the
``inputs_digest`` SHA-256 comes from the interpreter's built-in module
(``_sha2`` on CPython 3.12+, ``_sha256`` before), and ``hashlib`` only
when neither was built.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# The document formats are reachable from here as well: the benchmark and
# the tests write their documents with ``fixtrace.cli.serialize_*``.
from .documents import (
    InputError,
    parse_complex,
    parse_map,
    serialize_complex,
    serialize_map_fixture,
)
from .exactalg import hopf_chain_trace, homology, lefschetz_from_homology
from .simplicial import chain_complex, induced_chain_map, lefschetz_number

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:
    from .bundles import BundleSelfMapPair

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


# ---------------------------------------------------------------------------
# Bundle-pair documents.  ``pairs`` loads the bundle layer, so it is
# imported on each call; ``bench/tracer.py`` times ``cli.parse_pair``.
# ---------------------------------------------------------------------------

def serialize_pair(pair: BundleSelfMapPair) -> Dict:
    from . import pairs
    return pairs.serialize_pair(pair)


def parse_pair(doc: Dict) -> BundleSelfMapPair:
    from . import pairs
    return pairs.parse_pair(doc)


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
        parse_fixed_point_records,
        reidemeister_trace_chain,
        reidemeister_trace_geometric,
    )
    doc, digest = _read_input(args.input)
    k, f, basepath, raw = parse_map(doc)
    depth = DEFAULT_DEPTH if args.depth is None else args.depth
    parameters = {"depth": depth}
    flags: List[str] = []
    try:
        lift = lift_self_map(k, f, basepath=basepath or None)
    except UnsupportedComplexError as exc:
        return _report("reidemeister", digest, [], lhs=None, rhs=None,
                       verdict="unsupported", flags=[str(exc)],
                       parameters=parameters)
    trace = reidemeister_trace_chain(lift, depth)
    group = lift.complex.group
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
    records = parse_fixed_point_records(raw, group)
    geometric = None
    if records is not None:
        geo = reidemeister_trace_geometric(records, group, lift.endo, depth)
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
    reports = []
    stopped = None
    try:
        if args.theorem in ("lefschetz", "both"):
            reports.append(verify_lefschetz_mult(pair, depth))
        if args.theorem in ("reidemeister", "both"):
            reports.append(verify_reidemeister_mult(pair, depth))
            if reports[-1].verdict == "pass":
                reports.append(nielsen_additivity(pair, depth))
    except (UnsupportedComplexError, NotConstructibleError,
            IndeterminateError) as exc:
        stopped = exc
    # one fold over the reports, also of those finished before an error
    tables = [{"theorem": rep.theorem, "rows": rep.rows} for rep in reports]
    lhs = {rep.key: rep.lhs for rep in reports}
    rhs = {rep.key: rep.rhs for rep in reports}
    flags: List[str] = []
    for rep in reports:
        flags.extend(f for f in rep.flags if f not in flags)
    verdicts = {rep.verdict for rep in reports}
    verdict = next((v for v in ("fail", "indeterminate") if v in verdicts),
                   "pass")
    if stopped is not None:
        verdict = ("indeterminate" if isinstance(stopped, IndeterminateError)
                   else "unsupported")
        flags.append(str(stopped))
    return _report("bundle_verify", digest, tables, lhs=lhs or None,
                   rhs=rhs or None, verdict=verdict, flags=flags,
                   parameters=parameters)


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
    filename, text = cat.emit_document(args.name, params)
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
