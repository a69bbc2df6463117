"""Which layers each command loads, the lazy package exports, and the exit
codes ``main`` gives each error class."""

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

HOMOLOGY = {"fixtrace", "fixtrace.exactalg", "fixtrace.words",
            "fixtrace.simplicial"}
REIDEMEISTER = HOMOLOGY | {"fixtrace.grouprings", "fixtrace.reidemeister"}
BUNDLES = REIDEMEISTER | {"fixtrace.bundles"}
CATALOG = BUNDLES | {"fixtrace.catalog"}


def _reflection():
    return serialize_map_fixture(cat.circle_reflection_fixture(4))


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
    "bundle-verify": (["bundle-verify"],
                      lambda: serialize_pair(cat.double_cover_reflection_pair()),
                      0, BUNDLES),
    "catalog-emit": (["catalog", "emit", "circle"], None, 0, CATALOG),
}


# Commands whose start-up must not import ``dataclasses`` (which pulls in
# ``inspect``): the homology, group-ring, Reidemeister and bundle layers
# define plain classes instead.
NO_DATACLASSES = {"import", "homology", "homology-malformed", "lefschetz",
                  "reidemeister", "bundle-verify"}

# The inputs digest uses the interpreter's built-in SHA-256, so no command
# loads ``_hashlib`` (OpenSSL) unless the interpreter was built without it.
BUILTIN_SHA256 = any(importlib.util.find_spec(name) is not None
                     for name in ("_sha2", "_sha256"))


def _loaded_fixtrace_modules(argv, tmp_path):
    """Exit code, the fixtrace modules a fresh interpreter imports and
    whether it imports ``dataclasses`` and ``_hashlib``, read from
    ``-X importtime``; bytecode is not written, as in a read-only install."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=120)
    modules = set()
    dataclasses = openssl = False
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name == "fixtrace" or name.startswith("fixtrace."):
                modules.add(name)
            dataclasses = dataclasses or name == "dataclasses"
            openssl = openssl or name == "_hashlib"
    return proc.returncode, modules, dataclasses, openssl


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
    code, modules, dataclasses, openssl = _loaded_fixtrace_modules(argv,
                                                                   tmp_path)
    assert code == want_code
    assert modules == want_modules
    if name in NO_DATACLASSES:
        assert not dataclasses
    if BUILTIN_SHA256:
        assert not openssl


@pytest.mark.parametrize("name", [*fixtrace.__all__, "no_such_export"])
def test_lazy_exports_are_the_defining_modules_objects(name):
    if name not in fixtrace.__all__:
        with pytest.raises(AttributeError):
            getattr(fixtrace, name)
        return
    value = getattr(fixtrace, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("fixtrace.")
    assert getattr(home, name) is value
    assert getattr(fixtrace, name) is value


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
