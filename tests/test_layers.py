"""Which layers each command loads, the source lines it compiles, where the
names the package once re-exported live, and the exit codes ``main`` gives
each error class."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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
HOMOLOGY_LINES_CEILING = 1545
# The same for the commands that lift to universal covers.
LINES_CEILINGS = {"reidemeister": 3163, "bundle-verify": 4218}
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
                             REIDEMEISTER),
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
        "FiniteGroup", "FreeAbelianGroup", "FreeGroup", "GroupEndomorphism",
        "GroupHomomorphism", "ShadowElement", "augment", "classes_equal",
        "nielsen", "pushforward", "twisted_class"),
    "tests.chain_models": ("twisted_hs_trace",),
    "fixtrace.reidemeister": (
        "FixedPointRecord", "lift_map", "lift_self_map",
        "lift_to_universal_cover", "reidemeister_trace_chain",
        "reidemeister_trace_geometric"),
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
    ("exactalg", "ExactAlgError", 2, "error"),
    ("bundles", "BundleError", 2, "error"),
    ("words", "GroupError", 2, "error"),
]


@pytest.mark.parametrize("module, name, code, prefix", ERRORS)
def test_main_maps_each_error_class(monkeypatch, capsys, module, name, code,
                                    prefix):
    def fail(args):
        raise _error(module, name)("boom")

    monkeypatch.setattr(cli, "cmd_homology", fail)
    assert cli.main(["homology", "doc.json"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_main_reraises_unmapped_errors(monkeypatch):
    def fail(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_homology", fail)
    with pytest.raises(KeyError):
        cli.main(["homology", "doc.json"])
