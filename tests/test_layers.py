"""Which layers each command loads, the source lines it compiles, where the
names the package once re-exported live, the exit code each error class
states and ``main`` gives, and that every definition runs in a command or
the benchmark."""

import ast
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fixtrace
from fixtrace import catalog as cat
from fixtrace import cli
from fixtrace.cli import serialize_complex, serialize_map_fixture, serialize_pair

SRC = Path(fixtrace.__file__).resolve().parents[1]

HOMOLOGY = {"fixtrace", "fixtrace.documents", "fixtrace.exactalg",
            "fixtrace.simplicial"}
REIDEMEISTER = HOMOLOGY | {"fixtrace.words", "fixtrace.grouprings",
                           "fixtrace.presentations", "fixtrace.reidemeister"}
CATALOG = REIDEMEISTER | {"fixtrace.bundles", "fixtrace.catalog"}
BUNDLE_VERIFY = REIDEMEISTER | {"fixtrace.bundles", "fixtrace.pairs"}

# The fixtrace source lines a homology child compiles when bytecode is
# not cached; compiling them is most of a small command's start-up.
HOMOLOGY_LINES_CEILING = 1402
# The same for the commands that lift to universal covers.
LINES_CEILINGS = {"reidemeister": 2769, "bundle-verify": 3751}
# The largest module, bundles.py; compiling a module raises peak memory
# in proportion to its size.
MODULE_LINES_CEILING = 866


def _reflection():
    return serialize_map_fixture(cat.circle_reflection_fixture(4))


def _reflection_with_records():
    doc = _reflection()
    doc["fixed_point_records"] = [
        {"label": "z=1", "index": 1, "witness": [[0, 1]]},
        {"label": "z=-1", "index": 1, "witness": []}]
    return doc


def _reflection_by_reference():
    # a reflection of the catalog's triangle, fixing vertex 0
    return {"complex": {"ref": "circle"},
            "vertex_images": {"0": "0", "1": "2", "2": "1"}}


# name -> (command arguments, document builder or None, exit code, the
# fixtrace modules the command loads); "import" only imports the package
COMMANDS = {
    "import": (None, None, 0, {"fixtrace"}),
    "homology": (["homology"], lambda: serialize_complex(cat.circle_complex(4)),
                 0, HOMOLOGY),
    "homology-malformed": (["homology"], lambda: {"vertices": ["a"],
                                                  "simplices": [["a", "b"]]},
                           2, HOMOLOGY),
    "lefschetz": (["lefschetz"], _reflection, 0, HOMOLOGY),
    "lefschetz-ref": (["lefschetz"], _reflection_by_reference, 0, CATALOG),
    "reidemeister": (["reidemeister"], _reflection, 0, REIDEMEISTER),
    "reidemeister-records": (["reidemeister"], _reflection_with_records, 0,
                             REIDEMEISTER | {"fixtrace.records"}),
    "bundle-verify": (["bundle-verify"],
                      lambda: serialize_pair(cat.double_cover_reflection_pair()),
                      0, BUNDLE_VERIFY),
    "catalog-list": (["catalog", "list"], None, 0, CATALOG),
    "catalog-emit": (["catalog", "emit", "circle"], None, 0, CATALOG),
    "catalog-emit-pair": (["catalog", "emit", "trivial_product"], None, 0,
                          CATALOG | {"fixtrace.pairs"}),
}


# Commands whose start-up must not import ``dataclasses`` (which pulls in
# ``inspect``): the homology, group-ring, Reidemeister and bundle layers
# define plain classes instead.
NO_DATACLASSES = {"import", "homology", "homology-malformed", "lefschetz",
                  "reidemeister", "reidemeister-records", "bundle-verify"}
# No command, the catalog ones included, parses its arguments with
# ``argparse``, which loads ``gettext``: neither module is imported.
ARGPARSE_MODULES = {"argparse", "gettext"}

# The inputs digest uses the interpreter's built-in SHA-256, so no command
# loads ``_hashlib`` (OpenSSL) unless the interpreter was built without it.
BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


def _loaded_fixtrace_modules(argv, tmp_path):
    """Exit code, the fixtrace modules a fresh interpreter imports and the
    other modules it imports, read from ``-X importtime``; bytecode is not
    written, as in a read-only install."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=120)
    modules, others = set(), set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name == "fixtrace" or name.startswith("fixtrace."):
                modules.add(name)
            else:
                others.add(name)
    return proc.returncode, modules, others


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_its_layers(tmp_path, name):
    args, make_doc, want_code, want_modules = COMMANDS[name]
    if args is None:
        argv = ["-c", "import fixtrace"]
    else:
        argv = ["-m", "fixtrace.cli", *args]
        if make_doc is not None:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(make_doc()), encoding="utf-8")
            argv.append(str(path))
    code, modules, others = _loaded_fixtrace_modules(argv, tmp_path)
    assert code == want_code
    assert modules == want_modules
    if name in NO_DATACLASSES:
        assert "dataclasses" not in others
    assert not others & ARGPARSE_MODULES
    if BUILTIN_SHA256:
        assert "_hashlib" not in others


def _source_lines(module: str) -> int:
    name = module.split(".")[1] if "." in module else "__init__"
    return len((SRC / "fixtrace" / f"{name}.py").read_text().splitlines())


def _compiled_lines(tmp_path, name):
    """The fixtrace source lines the command of ``COMMANDS[name]`` compiles."""
    args, make_doc, want_code, _ = COMMANDS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc()), encoding="utf-8")
    code, modules, _ = _loaded_fixtrace_modules(
        ["-m", "fixtrace.cli", *args, str(path)], tmp_path)
    assert code == want_code
    # the command's own module runs as __main__, so importtime omits it
    return sum(_source_lines(m) for m in modules | {"fixtrace.cli"})


def test_homology_compiles_at_most_the_ceiling(tmp_path):
    assert _compiled_lines(tmp_path, "homology") <= HOMOLOGY_LINES_CEILING


@pytest.mark.parametrize("name", sorted(LINES_CEILINGS))
def test_lifting_command_compiles_at_most_its_ceiling(tmp_path, name):
    assert _compiled_lines(tmp_path, name) <= LINES_CEILINGS[name]


def test_no_module_outgrows_the_ceiling():
    for path in (SRC / "fixtrace").glob("*.py"):
        assert len(path.read_text().splitlines()) <= MODULE_LINES_CEILING, path


def test_simplicial_reaches_the_presentation_functions():
    from fixtrace import presentations, simplicial
    assert simplicial.pi1_presentation is presentations.pi1_presentation
    assert simplicial.induced_pi1_endo is presentations.induced_pi1_endo
    with pytest.raises(AttributeError):
        simplicial.Pi1Presentation


# The names ``fixtrace`` once re-exported lazily, by the module that now
# defines each; callers import them from there.
FORMER_EXPORTS = {
    "fixtrace.exactalg": (
        "ChainComplex", "ChainMap", "IntMatrix", "homology",
        "hopf_chain_trace", "lefschetz_from_homology", "smith_normal_form"),
    "fixtrace.simplicial": (
        "SimplicialComplex", "SimplicialMap", "build_complex",
        "chain_complex", "induced_chain_map", "lefschetz_number",
        "product_complex"),
    "fixtrace.presentations": ("induced_pi1_endo", "pi1_presentation"),
    "fixtrace.grouprings": (
        "FreeAbelianGroup", "FreeGroup", "GroupEndomorphism",
        "GroupHomomorphism", "ShadowElement", "augment", "classes_equal",
        "nielsen", "pushforward", "twisted_class"),
    "tests.chain_models": ("twisted_hs_trace",),
    "fixtrace.reidemeister": (
        "lift_map", "lift_self_map", "lift_to_universal_cover",
        "reidemeister_trace_chain"),
    "fixtrace.records": ("FixedPointRecord", "reidemeister_trace_geometric"),
    "fixtrace.bundles": (
        "BundleSelfMapPair", "DiscreteBundle", "GraphBase", "GraphSelfMap",
        "Transport", "base_reidemeister", "fiber_composite",
        "nielsen_additivity", "refined_reidemeister", "total_map",
        "total_space", "transport", "verify_lefschetz_mult",
        "verify_reidemeister_mult"),
}
HOME_OF = {name: module for module, names in FORMER_EXPORTS.items()
           for name in names}


@pytest.mark.parametrize("name", [*HOME_OF, "no_such_export"])
def test_lazy_exports_are_the_defining_modules_objects(name):
    # the package aliases nothing: each name is reached only at its home
    with pytest.raises(AttributeError):
        getattr(fixtrace, name)
    if name not in HOME_OF:
        return
    home = importlib.import_module(HOME_OF[name])
    value = getattr(home, name)
    assert value.__module__ == home.__name__


def _error(module, name):
    return getattr(importlib.import_module(f"fixtrace.{module}"), name)


# (defining module, error class, exit code, stderr prefix)
ERRORS = [
    ("cli", "InputError", 2, "error"),
    ("reidemeister", "UnsupportedComplexError", 3, "unsupported"),
    ("grouprings", "IndeterminateError", 3, "unsupported"),
    ("bundles", "NotConstructibleError", 3, "unsupported"),
    ("simplicial", "SimplicialError", 2, "error"),
    ("bundles", "BundleError", 2, "error"),
]


@pytest.mark.parametrize("module, name, code, prefix", ERRORS)
def test_main_maps_each_error_class(monkeypatch, capsys, module, name, code,
                                    prefix):
    def fail(args):
        raise _error(module, name)("boom")

    monkeypatch.setattr(cli, "cmd_homology", fail)
    assert cli.main(["homology", "doc.json"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


# The error classes without an exit code: no document reaches them, so a
# broken invariant of a lift, a group or a chain complex is a bug and
# stays a traceback.
NO_EXIT_CODE = {"fixtrace.reidemeister.LiftError",
                "fixtrace.grouprings.GroupError",
                "fixtrace.exactalg.ExactAlgError"}


def test_main_lets_each_tripped_self_check_propagate(monkeypatch):
    for name in sorted(NO_EXIT_CODE):
        module, cls = name.rsplit(".", 1)
        error = getattr(importlib.import_module(module), cls)

        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_homology", fail)
        with pytest.raises(error):
            cli.main(["homology", "doc.json"])


def test_each_error_class_states_its_exit_code():
    """Every exception class a fixtrace module defines carries exit code 2
    or 3, so ``main`` needs no registry; a new one must choose."""
    found = set()
    for path in (SRC / "fixtrace").glob("*.py"):
        module = importlib.import_module(
            "fixtrace" if path.stem == "__init__" else f"fixtrace.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                name = f"{module.__name__}.{obj.__name__}"
                found.add(name)
                if name in NO_EXIT_CODE:
                    assert not hasattr(obj, "exit_code"), name
                else:
                    assert getattr(obj, "exit_code", None) in (2, 3), name
    assert NO_EXIT_CODE <= found
    assert {f"fixtrace.{m}.{n}" for m, n, _, _ in ERRORS if m != "cli"} <= found


def test_main_reraises_unmapped_errors(monkeypatch):
    def fail(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_homology", fail)
    with pytest.raises(KeyError):
        cli.main(["homology", "doc.json"])


# The reachability guard.  A child interpreter installs a global trace
# hook before it imports fixtrace, so calls made while modules load count
# too, and then runs ``_run_set`` in process through ``cli.main``.  The
# hook returns None, so it sees each call of a Python function and nothing
# else: it costs less than a profile hook, which also fires on returns and
# on every call of a built-in.

BENCH = SRC.parent / "bench"

# Definitions no run of ``_run_set`` reaches, each kept for its reason.  A
# key names a definition (``module:qualname``), a class and so all of its
# methods, or a method name in every class.
UNREACHED_ON_PURPOSE = {
    **{f"grouprings:GroupRingElement.{name}":
       "a GroupRingMatrix method that bench/tracer.py wraps calls it "
       "(ROADMAP item 8)"
       for name in ("__add__", "__neg__", "apply", "augmentation")},
    "exactalg:IntMatrix.__setattr__":
        "refuses to mutate a matrix; no correct caller reaches it",
    "__repr__": "debugging output, which no report prints",
    "cli:run": "the entry point of the fixtrace script and of python -m "
               "fixtrace.cli; the guard calls cli.main, which it wraps",
}

# Defaults (``module:qualname(parameter)``) no call of ``_run_set`` leaves
# unsupplied, each kept for its reason.
UNSUPPLIED_ON_PURPOSE = {
    "cli:main(argv)": "cli.run, the entry point of the fixtrace script and "
                      "of python -m fixtrace.cli, calls main() to read "
                      "sys.argv; the guard calls cli.main with its argv",
}

# A fixed-point-free map of K4 whose classes the depth-2 search compares
# by orbit balls (and leaves Unknown).
K4_BALLS = (1, 1, 3, 2)


def _cli(tmp_path, argv, doc=None):
    """Exit code and stdout of ``cli.main(argv)``, with ``doc`` written to
    a file and passed last; usage exits count as exit codes."""
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*argv, str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# The benchmark workloads each half of the run set runs; two children run
# the halves side by side, which halves the wall time the hook costs.
HALVES = (("reidemeister-trace",),
          ("homology-lefschetz", "bundle-factorization"))


def _run_set(tmp_path, half):
    """The commands the guard counts as reaching code: the seed-1
    benchmark documents of the workloads of ``HALVES[half]``, checked by
    their oracles, and in the first half also each catalog document with
    each command that reads it, the catalog commands, a depth-2 K4 pair, a
    map with fixed point records and ``--help``."""
    sys.path.insert(0, str(BENCH))
    import workloads
    from tests.oracles import k4_point_fiber_pair
    for name in HALVES[half]:
        for command in workloads.WORKLOADS[name](random.Random(1)):
            code, out = _cli(tmp_path, [command.command], command.document)
            assert workloads.check_report(
                command, code, out.encode("utf-8")) is None, command.name
    if half:
        return
    for _, kind, doc in workloads.catalog_documents():
        for command in workloads.COVERAGE_COMMANDS[kind]:
            _cli(tmp_path, [command], doc)
    assert _cli(tmp_path, ["catalog", "list"])[0] == 0
    for name in sorted(cat.CATALOG):
        assert _cli(tmp_path, ["catalog", "emit", name])[0] == 0
    assert _cli(tmp_path, ["catalog", "emit", "circle", "--param",
                           "n=2"])[0] == 2
    assert _cli(tmp_path, ["bundle-verify", "--depth", "2"],
                serialize_pair(k4_point_fiber_pair(K4_BALLS)))[0] == 3
    assert _cli(tmp_path, ["reidemeister"], _reflection_with_records())[0] == 0
    assert _cli(tmp_path, ["--help"])[0] == 0


_CHILD = """\
import json, sys
from pathlib import Path
reached, unsupplied, marked = set(), set(), {}
def hook(frame, event, arg, add=reached.add):
    code = frame.f_code
    add(code)
    if code in marked:
        local = frame.f_locals
        for name, (marker, value) in marked[code].items():
            if local.get(name) is marker:
                unsupplied.add((code, name))
                local[name] = value
sys.settrace(hook)
from tests.test_layers import _mark_defaults, _run_set
marked.update(_mark_defaults())
_run_set(Path(sys.argv[1]), int(sys.argv[2]))
sys.settrace(None)
def where(c):
    return c.co_filename, c.co_firstlineno, c.co_name
json.dump({"reached": sorted(where(c) for c in reached),
           "unsupplied": sorted((*where(c), n) for c, n in unsupplied)},
          sys.stdout)
"""


def _mark_defaults():
    """Import every fixtrace module and give each default of each of its
    functions a fresh marker object in place of its value.  Returns, by
    code object, each such parameter's marker and value: the child's hook
    sees the marker in a call's locals exactly when the call left that
    parameter unsupplied, and puts the value back (a trace hook's writes to
    ``f_locals`` reach the frame)."""
    package = SRC / "fixtrace"
    for path in package.glob("*.py"):
        importlib.import_module("fixtrace" if path.stem == "__init__"
                                else f"fixtrace.{path.stem}")
    marked = {}
    for fn in gc.get_objects():
        if (not isinstance(fn, types.FunctionType)
                or Path(fn.__code__.co_filename).parent != package):
            continue
        code, params = fn.__code__, {}
        if fn.__defaults__:
            names = code.co_varnames[code.co_argcount
                                     - len(fn.__defaults__):code.co_argcount]
            markers = tuple(object() for _ in names)
            params.update(zip(names, zip(markers, fn.__defaults__)))
            fn.__defaults__ = markers
        if fn.__kwdefaults__:
            keywords = {name: (object(), value)
                        for name, value in fn.__kwdefaults__.items()}
            params.update(keywords)
            fn.__kwdefaults__ = {name: marker
                                 for name, (marker, _) in keywords.items()}
        if params:
            marked[code] = params
    return marked


def _reached(tmp_path):
    """(module, first line, name) of each fixtrace function the run set
    called, and (module, first line, name, parameter) of each default a
    call left unsupplied, read from the trace hooks of two child
    interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(SRC)]))
    children = []
    for half in range(len(HALVES)):
        work = tmp_path / str(half)
        work.mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(work), str(half)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=SRC.parent, env=env))
    reached, unsupplied = set(), set()
    package = SRC / "fixtrace"
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        found = json.loads(out)
        reached.update((Path(path).stem, *rest)
                       for path, *rest in found["reached"]
                       if Path(path).parent == package)
        unsupplied.update((Path(path).stem, *rest)
                          for path, *rest in found["unsupplied"])
    return reached, unsupplied


def _definitions(node, prefix=""):
    """(qualified name, first line, name, parameters with a default) of each
    function and method under ``node``, functions local to another aside;
    the first line is the first decorator's, as code objects count it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = [a.arg for a in
                         positional[len(positional) - len(args.defaults):]]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                          if d is not None]
            yield prefix + child.name, first, child.name, defaulted
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _tracer_targets():
    """``module:qualname`` of the functions ``bench/tracer.py`` wraps, by
    the module that defines each."""
    from tests.test_tracer_spans import _tracer_module
    tracer = _tracer_module()
    targets = set(tracer.COUNTERS.values())
    for names, _ in tracer.SPANS.values():
        targets.update(names)
    out = set()
    for target in targets:
        module, qualname = target.split(":")
        obj = importlib.import_module(f"fixtrace.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        out.add(f"{obj.__module__.rsplit('.', 1)[-1]}:{obj.__qualname__}")
    return out


def _on_purpose(name):
    """The key of ``UNREACHED_ON_PURPOSE`` that keeps ``name``, if any."""
    module, qualname = name.split(":")
    for key in (name, f"{module}:{qualname.split('.')[0]}",
                qualname.rsplit(".", 1)[-1]):
        if key in UNREACHED_ON_PURPOSE:
            return key
    return None


def test_every_definition_runs_in_a_command_or_the_benchmark(tmp_path):
    """Every function and method of ``src/fixtrace``, dunder methods
    included, ran in ``_run_set``, is a ``bench/tracer.py`` target or is
    kept on purpose, and each of its defaults was left unsupplied by some
    call of the run set or is kept on purpose: code, and a default, that
    only tests reach belongs with the tests."""
    reached, unsupplied = _reached(tmp_path)
    targets = _tracer_targets()
    unreached, kept, supplied = set(), set(), set()
    for path in sorted((SRC / "fixtrace").glob("*.py")):
        for qualname, line, name, defaulted in _definitions(
                ast.parse(path.read_text())):
            full = f"{path.stem}:{qualname}"
            for param in defaulted:
                if (path.stem, line, name, param) in unsupplied:
                    continue
                if f"{full}({param})" in UNSUPPLIED_ON_PURPOSE:
                    kept.add(f"{full}({param})")
                else:
                    supplied.add(f"{full}({param})")
            if (path.stem, line, name) in reached or full in targets:
                continue
            key = _on_purpose(full)
            if key is None:
                unreached.add(full)
            else:
                kept.add(key)
    assert not unreached, "only tests reach " + ", ".join(sorted(unreached))
    assert not supplied, ("only tests leave these defaults unsupplied: "
                          + ", ".join(sorted(supplied)))
    # every entry still keeps something
    assert kept == set(UNREACHED_ON_PURPOSE) | set(UNSUPPLIED_ON_PURPOSE)
