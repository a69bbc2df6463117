"""Command-line interface: argument parsing, the five commands and their reports.

All inputs and outputs are UTF-8 JSON documents with a fixed field
order, so identical inputs produce byte-identical reports.  Exit codes:
0 success / verification pass, 1 verification fail, 2 input error,
3 unsupported or indeterminate.

Only the homology layers and the complex and map documents are imported
with this module; the commands import the other layers they use.  The
``inputs_digest`` SHA-256 comes from the interpreter's built-in module,
so no command loads OpenSSL.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
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
                  verdict: str, flags: List[str], parameters: Optional[Dict]
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


def _distinct_keys(pairs: List[Tuple[str, object]]) -> Dict:
    """JSON object hook of every document: a repeated key is malformed."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"repeated key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _read_input(path: str) -> Tuple[Dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_distinct_keys)
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
    from .grouprings import (DEFAULT_DEPTH, EQUAL, UNKNOWN, IndeterminateError,
                             augment, class_label, nielsen, shadow_equal,
                             shadow_rendering)
    from .reidemeister import (UnsupportedComplexError, lift_self_map,
                               parse_fixed_point_records,
                               reidemeister_trace_chain,
                               reidemeister_trace_geometric)
    doc, digest = _read_input(args.input)
    k, f, basepath, records = parse_map(doc)
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
    records = parse_fixed_point_records(records, group)
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
    from .bundles import (NotConstructibleError, nielsen_additivity,
                          verify_lefschetz_mult, verify_reidemeister_mult)
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
    from . import catalog
    catalog.command(args.action, args.name, args.param, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

USAGE = """\
usage: fixtrace homology INPUT
       fixtrace lefschetz INPUT
       fixtrace reidemeister INPUT [--depth N]
       fixtrace bundle-verify INPUT [--theorem lefschetz|reidemeister|both]
                              [--depth N]
       fixtrace catalog list
       fixtrace catalog emit NAME [--param KEY=VALUE]... [--out DIR]
"""

# command -> (its function's name, looked up at each call so that a patched
# function runs; its positional arguments, the first required; its options)
_COMMANDS = {
    "homology": ("cmd_homology", ("input",), ()),
    "lefschetz": ("cmd_lefschetz", ("input",), ()),
    "reidemeister": ("cmd_reidemeister", ("input",), ("--depth",)),
    "bundle-verify": ("cmd_bundle_verify", ("input",),
                      ("--theorem", "--depth")),
    "catalog": ("cmd_catalog", ("action", "name"), ("--param", "--out")),
}
_CHOICES = {"theorem": ("lefschetz", "reidemeister", "both"),
            "action": ("list", "emit")}


def _exit_usage(error: Optional[str]):
    """Print the usage and exit 0, or with ``error`` to stderr and exit 2."""
    if error is None:
        sys.stdout.write(USAGE)
        raise SystemExit(EXIT_OK)
    sys.stderr.write(f"{USAGE}fixtrace: error: {error}\n")
    raise SystemExit(EXIT_INPUT)


def parse_args(argv: Sequence[str]) -> Tuple[str, SimpleNamespace]:
    """The command's function name and its arguments.  An option's value
    follows as ``--opt value`` or ``--opt=value``, before or after INPUT."""
    command, rest, values = (argv or [""])[0], iter(argv[1:]), []
    if command not in _COMMANDS:
        _exit_usage(None if command in ("-h", "--help") else
                    f"the command must be one of {', '.join(_COMMANDS)}")
    func, positional, options = _COMMANDS[command]
    args = SimpleNamespace(input=None, action=None, name=None, depth=None,
                           theorem="both", param=(), out=None)
    for arg in rest:
        option, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            _exit_usage(None)
        elif not arg.startswith("-"):
            values.append(arg)
        elif option not in options:
            _exit_usage(f"{command} has no option {option}")
        elif not eq and (value := next(rest, None)) is None:
            _exit_usage(f"{option} needs a value")
        elif option == "--param":
            args.param += (value,)
        else:
            setattr(args, option[2:], value)
    if not values:
        _exit_usage(f"{command} needs {positional[0].upper()}")
    if len(values) > len(positional):
        _exit_usage(f"unrecognized arguments: {values[len(positional):]}")
    for name, value in zip(positional, values):
        setattr(args, name, value)
    for name, choices in _CHOICES.items():
        value = getattr(args, name)
        if value not in (None, *choices):
            _exit_usage(f"{name} must be one of {', '.join(choices)}, "
                        f"got {value!r}")
    try:
        args.depth = None if args.depth is None else int(args.depth)
    except ValueError:
        _exit_usage(f"--depth must be an integer, got {args.depth!r}")
    if args.depth is not None and args.depth < 0:
        _exit_usage(f"depth must be nonnegative, got {args.depth}")
    return func, args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  An error that states its ``exit_code`` is reported
    on stderr; any other exception is a bug and propagates."""
    func, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()[func](args)
    except Exception as exc:
        code = getattr(exc, "exit_code", None)
        if code is None:
            raise
        prefix = "unsupported" if code == EXIT_UNSUPPORTED else "error"
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


def run() -> None:
    """Entry point of ``python -m fixtrace.cli`` and the ``fixtrace`` script.

    ``gc.freeze()`` moves the heap to the permanent generation, which the
    collections of interpreter shutdown skip.  Shutdown still runs atexit
    handlers and flushes stdio, which ``os._exit`` would skip."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
