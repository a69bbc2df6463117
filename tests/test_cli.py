import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtrace import catalog as cat
from fixtrace.catalog import emit_document
from fixtrace.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    USAGE,
    _digest,
    main,
    parse_args,
    parse_complex,
    parse_pair,
    serialize_complex,
    serialize_pair,
)

SRC = Path(cat.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def triangle_doc():
    return serialize_complex(cat.circle_complex(3))


def reflection_doc():
    from fixtrace.cli import serialize_map_fixture
    return serialize_map_fixture(cat.circle_reflection_fixture(4))


# ---------------------------------------------------------------------------
# inputs digest
# ---------------------------------------------------------------------------

def test_digest_is_sha256():
    # the FIPS 180-2 test vector
    assert _digest(b"abc") == ("ba7816bf8f01cfea414140de5dae2223"
                               "b00361a396177a9cb410ff61f20015ad")
    for data in (b"", b"abc", bytes(range(256)) * 4096):  # the last is 1 MiB
        assert _digest(data) == hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# homology command
# ---------------------------------------------------------------------------

def test_homology_triangle(tmp_path, capsys):
    path = write(tmp_path, "c.json", triangle_doc())
    code, out, _ = run_cli(capsys, "homology", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["betti"] for row in doc["tables"]] == [1, 1]


def test_homology_point(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 serialize_complex(cat.point_complex()))
    code, out, _ = run_cli(capsys, "homology", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["betti"] for row in doc["tables"]] == [1]


def test_homology_malformed_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "homology", str(path))
    assert code == EXIT_INPUT
    assert "error" in err


def test_homology_deeply_nested_document_exit2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run_cli(capsys, "homology", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ")


def test_homology_invalid_complex_exit2(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"vertices": ["0"], "simplices": [["0", "0"]]})
    code, out, err = run_cli(capsys, "homology", str(path))
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# lefschetz command
# ---------------------------------------------------------------------------

def test_lefschetz_reflection(tmp_path, capsys):
    path = write(tmp_path, "m.json", reflection_doc())
    code, out, _ = run_cli(capsys, "lefschetz", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["lhs"] == 2 and doc["rhs"] == 2
    assert doc["verdict"] == "pass"


def test_lefschetz_torus_identity(tmp_path, capsys):
    k = cat.torus7_complex()
    doc = {"complex": serialize_complex(k),
           "vertex_images": {v: v for v in k.vertices},
           "basepath": []}
    path = write(tmp_path, "t.json", doc)
    code, out, _ = run_cli(capsys, "lefschetz", path)
    assert code == EXIT_OK
    assert json.loads(out)["lhs"] == 0


# ---------------------------------------------------------------------------
# reidemeister command
# ---------------------------------------------------------------------------

def test_reidemeister_reflection(tmp_path, capsys):
    doc = reflection_doc()
    doc["fixed_point_records"] = [
        {"label": "z=1", "index": 1, "witness": [[0, 1]]},
        {"label": "z=-1", "index": 1, "witness": []},
    ]
    path = write(tmp_path, "m.json", doc)
    code, out, _ = run_cli(capsys, "reidemeister", path)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["lhs"]["nielsen"] == 2
    assert rep["lhs"]["augmentation"] == 2
    assert sorted(c for _, c in rep["lhs"]["classes"]) == [1, 1]


def test_reidemeister_wrong_records_exit1(tmp_path, capsys):
    doc = reflection_doc()
    doc["fixed_point_records"] = [
        {"label": "bogus", "index": 5, "witness": []},
    ]
    path = write(tmp_path, "m.json", doc)
    code, out, _ = run_cli(capsys, "reidemeister", path)
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_reidemeister_unsupported_exit3(tmp_path, capsys):
    # projective plane: pi1 is finite cyclic, not recognized
    faces = [["0", "1", "3"], ["0", "1", "5"], ["0", "2", "3"],
             ["0", "2", "4"], ["0", "4", "5"], ["1", "2", "4"],
             ["1", "2", "5"], ["1", "3", "4"], ["2", "3", "5"],
             ["3", "4", "5"]]
    verts = [str(i) for i in range(6)]
    doc = {"complex": {"vertices": verts, "simplices": faces},
           "vertex_images": {v: v for v in verts}}
    path = write(tmp_path, "rp2.json", doc)
    code, out, _ = run_cli(capsys, "reidemeister", path)
    assert code == EXIT_UNSUPPORTED
    assert json.loads(out)["verdict"] == "unsupported"


# ---------------------------------------------------------------------------
# bundle-verify command
# ---------------------------------------------------------------------------

def test_bundle_verify_double_cover(tmp_path, capsys):
    doc = serialize_pair(cat.double_cover_reflection_pair())
    path = write(tmp_path, "pair.json", doc)
    code, out, _ = run_cli(capsys, "bundle-verify", path)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["lhs"]["lefschetz"] == 2
    table = next(t for t in rep["tables"] if t["theorem"] == "lefschetz")
    assert sorted((r["ind"], r["fiber_lefschetz"]) for r in table["rows"]) \
        == [(1, 0), (1, 2)]


def test_bundle_verify_corrupted_transport_exit2(tmp_path, capsys):
    doc = serialize_pair(cat.double_cover_reflection_pair())
    # corrupt one transport so the inverse law fails on homology
    doc["bundle"]["transports"]["e3"]["inverse"]["vertex_images"] = {
        "0": "0", "1": "0"}
    path = write(tmp_path, "pair.json", doc)
    code, out, err = run_cli(capsys, "bundle-verify", path)
    assert code == EXIT_INPUT


def test_bundle_verify_broken_pair_fails(tmp_path, capsys):
    doc = serialize_pair(cat.trivial_product_pair("reflection", "reflection"))
    # corrupt the supplied-total-map-free pair: make one fiber map constant
    # over a single vertex; compatibility then fails and input is rejected
    doc["fiber_maps"]["b1"]["vertex_images"] = {"0": "0", "1": "0", "2": "0"}
    path = write(tmp_path, "pair.json", doc)
    code, out, err = run_cli(capsys, "bundle-verify", path)
    assert code == EXIT_INPUT


def test_bundle_verify_lefschetz_only(tmp_path, capsys):
    doc = serialize_pair(cat.trivial_product_pair("reflection", "constant"))
    path = write(tmp_path, "pair.json", doc)
    code, out, _ = run_cli(capsys, "bundle-verify", path,
                           "--theorem", "lefschetz")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["lhs"]["lefschetz"] == 2


def test_bundle_verify_not_constructible_exit3(tmp_path, capsys):
    doc = serialize_pair(cat.circle_degree_pair(2))
    path = write(tmp_path, "pair.json", doc)
    code, out, _ = run_cli(capsys, "bundle-verify", path)
    assert code == EXIT_UNSUPPORTED
    assert json.loads(out)["verdict"] == "unsupported"


def test_bundle_verify_indeterminate_exit3(tmp_path, capsys):
    # theta base (three edges b0 -> b1, tree [x]) with a map fixing x and
    # swapping y and z: pi_1 is free of rank two, whose twisted classes are
    # only heuristic, so the verdict is flagged indeterminate.  The base
    # has no loop edge, so the total space passes its Euler check.
    from fixtrace.bundles import BundleSelfMapPair, GraphBase, GraphSelfMap
    from fixtrace.simplicial import SimplicialMap
    base = GraphBase(["b0", "b1"], [("x", "b0", "b1"), ("y", "b0", "b1"),
                                    ("z", "b0", "b1")], ["x"], "b0")
    bundle = cat.point_fiber_bundle(base)
    pt = cat.point_complex()
    bmap = GraphSelfMap(base, {"b0": "b0", "b1": "b1"},
                        {"x": [("x", 1)], "y": [("z", 1)], "z": [("y", 1)]})
    fiber_maps = {v: SimplicialMap(pt, pt, {"p": "p"}) for v in base.vertices}
    pair = BundleSelfMapPair(bundle, bmap, fiber_maps)
    doc = serialize_pair(pair)
    path = write(tmp_path, "pair.json", doc)
    code, out, _ = run_cli(capsys, "bundle-verify", path, "--depth", "2")
    assert code == EXIT_UNSUPPORTED
    report = json.loads(out)
    assert report["verdict"] == "indeterminate"
    # both verifiers flag the heuristic base classes; the report says it once
    assert report["flags"] == ["heuristic base classes (depth 2)"]


def test_bundle_verify_empty_fiber_exit3(tmp_path, capsys):
    # the empty fiber over a point base: the Lefschetz side reads 0 = 0,
    # and the total space has no vertex to lift from
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphSelfMap)
    from fixtrace.simplicial import SimplicialMap, build_complex
    base = cat.point_base()
    fib = build_complex([])
    pair = BundleSelfMapPair(DiscreteBundle(base, {"b0": fib}, {}),
                             GraphSelfMap(base, {"b0": "b0"}, {}),
                             {"b0": SimplicialMap(fib, fib, {})})
    path = write(tmp_path, "pair.json", serialize_pair(pair))
    code, out, _ = run_cli(capsys, "bundle-verify", path)
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (EXIT_UNSUPPORTED, "unsupported")
    assert [t["theorem"] for t in rep["tables"]] == ["lefschetz"]
    assert rep["lhs"] == rep["rhs"] == {"lefschetz": 0}
    assert rep["flags"] == ["universal-cover lifts need a connected complex"]


def _one_loop_reflection_pair():
    # one-vertex base with one loop edge, triangle fiber, reflection over it
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphBase, GraphSelfMap, Transport)
    from fixtrace.simplicial import SimplicialMap
    base = GraphBase(["b0"], [("a", "b0", "b0")], [], "b0")
    fib = cat.circle_complex(3)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    refl = SimplicialMap(fib, fib, {str(i): str((-i) % 3) for i in range(3)})
    bundle = DiscreteBundle(base, {"b0": fib}, {"a": Transport(ident, ident)})
    bmap = GraphSelfMap(base, {"b0": "b0"}, {"a": [("a", 1)]})
    return BundleSelfMapPair(bundle, bmap, {"b0": refl})


def _figure_eight_point_identity_pair():
    from fixtrace.bundles import BundleSelfMapPair, GraphSelfMap
    from fixtrace.simplicial import SimplicialMap
    base = cat.figure_eight_base()
    pt = cat.point_complex()
    bmap = GraphSelfMap(base, {"b0": "b0"},
                        {"a": [("a", 1)], "b": [("b", 1)]})
    return BundleSelfMapPair(cat.point_fiber_bundle(base), bmap,
                             {"b0": SimplicialMap(pt, pt, {"p": "p"})})


# Both sides of each loop pair, by the theorem that reports them.
LOOP_SIDES = {
    "_one_loop_reflection_pair": {
        "lefschetz": 0, "reidemeister": [], "nielsen": 0},
    "_figure_eight_point_identity_pair": {
        "lefschetz": -1, "reidemeister": [["[]", -1]], "nielsen": 1},
}
THEOREM_KEYS = {"lefschetz": ["lefschetz"],
                "reidemeister": ["reidemeister", "nielsen"],
                "both": ["lefschetz", "reidemeister", "nielsen"]}


@pytest.mark.parametrize("make, fiber_vertices, chi_total", [
    (_one_loop_reflection_pair, 3, 0),
    (_figure_eight_point_identity_pair, 1, -1)])
@pytest.mark.parametrize("theorem", ["lefschetz", "reidemeister", "both"])
def test_bundle_verify_loop_edges_unsupported_not_fail(tmp_path, capsys, make,
                                                       fiber_vertices,
                                                       chi_total, theorem):
    # Over a one-vertex base whose edges are all loops, each loop stacks two
    # inner fiber copies, so its three prisms share no faces, the total
    # space has chi(B) chi(F), and both pairs pass with exact sides.  The
    # name, kept so the test ids stay, predates the inner copies.
    from fixtrace.bundles import total_space
    pair = make()
    k = total_space(pair.bundle).complex
    loops = len(pair.bundle.base.edges)
    assert (len([v for v in k.vertices if v[0] != "c"])
            == fiber_vertices * (1 + 2 * loops))
    assert k.euler_characteristic() == chi_total
    path = write(tmp_path, "pair.json", serialize_pair(pair))
    code, out, _ = run_cli(capsys, "bundle-verify", path,
                           "--theorem", theorem)
    rep = json.loads(out)
    assert (code, rep["verdict"], rep["flags"]) == (EXIT_OK, "pass", [])
    sides = {key: LOOP_SIDES[make.__name__][key]
             for key in THEOREM_KEYS[theorem]}
    assert rep["lhs"] == rep["rhs"] == sides


def test_bundle_verify_builds_total_space_and_lift_once(tmp_path, capsys,
                                                       monkeypatch):
    from fixtrace import bundles
    pair = cat.trivial_product_pair("reflection", "reflection")
    path = write(tmp_path, "pair.json", serialize_pair(pair))
    built = []
    lifted = []
    endos = []
    base_traces = []
    traced = []
    real_total_space = bundles.total_space
    real_lift = bundles.lift_self_map
    real_endo = bundles.GroupEndomorphism
    real_base_trace = bundles.base_reidemeister
    real_trace = bundles.reidemeister_trace_chain

    def counting_total_space(bundle):
        total = real_total_space(bundle)
        built.append(total.complex)
        return total

    def counting_lift(k, f, *args, **kwargs):
        result = real_lift(k, f, *args, **kwargs)
        lifted.append((k, result))
        return result

    def counting_endo(*args, **kwargs):
        endos.append(args)
        return real_endo(*args, **kwargs)

    def counting_base_trace(*args, **kwargs):
        base_traces.append(args)
        return real_base_trace(*args, **kwargs)

    def counting_trace(lift, *args, **kwargs):
        traced.append(lift)
        return real_trace(lift, *args, **kwargs)

    monkeypatch.setattr(bundles, "total_space", counting_total_space)
    monkeypatch.setattr(bundles, "lift_self_map", counting_lift)
    monkeypatch.setattr(bundles, "GroupEndomorphism", counting_endo)
    monkeypatch.setattr(bundles, "base_reidemeister", counting_base_trace)
    monkeypatch.setattr(bundles, "reidemeister_trace_chain", counting_trace)
    code, out, _ = run_cli(capsys, "bundle-verify", path, "--theorem", "both")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"
    assert len(built) == 1
    total_lifts = [lift for k, lift in lifted if k == built[0]]
    assert len(total_lifts) == 1
    assert len(endos) == 1  # the base endomorphism
    assert len(base_traces) == 1
    assert sum(1 for lift in traced if lift is total_lifts[0]) == 1


def test_bundle_verify_shares_chains_bases_and_fiber_traces(tmp_path, capsys,
                                                           monkeypatch):
    # Each complex builds its chain complex, its pi_1 presentation and its
    # universal cover once, each chain complex each degree's homology basis
    # once, and each base class its pushed fiber trace once, although both
    # theorems read them.
    from fixtrace import bundles, cli, exactalg, reidemeister, simplicial
    _, text, _ = run_cli(capsys, "catalog", "emit", "trivial_product")
    path = write(tmp_path, "pair.json", json.loads(text))
    complexes = []
    bases = []
    classes = []
    real_chain_complex = simplicial.chain_complex
    real_basis = exactalg._homology_basis
    real_refined = bundles.refined_reidemeister

    def counting_chain_complex(k):
        complexes.append(k)
        return real_chain_complex(k)

    def counting_basis(c, i):
        bases.append((c, i))
        return real_basis(c, i)

    def counting_refined(pair, cls, *args, **kwargs):
        classes.append(cls.key)
        return real_refined(pair, cls, *args, **kwargs)

    monkeypatch.setattr(simplicial, "chain_complex", counting_chain_complex)
    monkeypatch.setattr(exactalg, "_homology_basis", counting_basis)
    monkeypatch.setattr(bundles, "refined_reidemeister", counting_refined)
    presented, covered = [], []
    for owner, name, calls, complex_of in (
            (simplicial, "pi1_presentation", presented, lambda k, *_: k),
            (reidemeister, "lift_to_universal_cover", covered,
             lambda p: p.complex)):
        real = getattr(owner, name)

        def counting(*args, real=real, calls=calls, complex_of=complex_of,
                     **kwargs):
            k = complex_of(*args)
            calls.append((k.vertices, k.simplices))
            return real(*args, **kwargs)

        for mod in (simplicial, reidemeister, bundles, cli):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    code, out, _ = run_cli(capsys, "bundle-verify", path, "--theorem", "both")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert complexes and bases
    assert len({id(k) for k in complexes}) == len(complexes)
    assert len({(id(c), i) for c, i in bases}) == len(bases)
    base_classes = [row["class"] for row in rep["tables"][1]["rows"]]
    assert len(classes) == len(set(classes)) == len(base_classes) == 2
    # the total space and the one fiber component
    assert len(presented) == len(set(presented)) == 2
    assert covered == presented


def test_negative_depth_exit2(tmp_path, capsys):
    path = write(tmp_path, "map.json", reflection_doc())
    for command in ("reidemeister", "bundle-verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--depth", "-1"])
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "depth must be nonnegative" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# argv -> the arguments it parses to; options go before or after INPUT and
# take their value as the next word or after ``=``
ACCEPTED = [
    (["homology", "k.json"], {"input": "k.json"}),
    (["reidemeister", "m.json", "--depth", "3"], {"input": "m.json",
                                                  "depth": 3}),
    (["reidemeister", "--depth", "3", "m.json"], {"input": "m.json",
                                                  "depth": 3}),
    (["reidemeister", "--depth=0", "m.json"], {"input": "m.json", "depth": 0}),
    (["reidemeister", "m.json", "--depth", "2", "--depth=5"], {"depth": 5}),
    (["bundle-verify", "p.json"], {"input": "p.json", "theorem": "both",
                                   "depth": None}),
    (["bundle-verify", "--theorem=lefschetz", "p.json", "--depth", "4"],
     {"input": "p.json", "theorem": "lefschetz", "depth": 4}),
    (["bundle-verify", "p.json", "--theorem", "reidemeister"],
     {"theorem": "reidemeister"}),
    (["catalog", "list"], {"action": "list", "name": None, "param": ()}),
    (["catalog", "emit", "circle", "--param", "n=4", "--param=m=a=b",
      "--out", "d"],
     {"action": "emit", "name": "circle", "param": ("n=4", "m=a=b"),
      "out": "d"}),
    (["catalog", "--out=d", "emit", "--param", "n=5", "circle"],
     {"action": "emit", "name": "circle", "param": ("n=5",), "out": "d"}),
]


@pytest.mark.parametrize("argv, want", ACCEPTED)
def test_parse_args_accepts_each_form(argv, want):
    func, args = parse_args(argv)
    assert func == "cmd_" + argv[0].replace("-", "_")
    assert {key: getattr(args, key) for key in want} == want


# argv that is not a command line of fixtrace, and what its error line says
USAGE_ERRORS = [
    ([], "the command must be one of homology, lefschetz, reidemeister, "
         "bundle-verify, catalog"),
    (["bogus", "k.json"], "the command must be one of"),
    (["--depth", "2", "reidemeister", "m.json"], "the command must be one of"),
    (["homology"], "homology needs INPUT"),
    (["catalog"], "catalog needs ACTION"),
    (["homology", "a.json", "b.json"], "unrecognized arguments: ['b.json']"),
    (["homology", "k.json", "--depth", "2"], "homology has no option --depth"),
    (["reidemeister", "m.json", "--dep", "2"],
     "reidemeister has no option --dep"),
    (["reidemeister", "m.json", "-d", "2"], "reidemeister has no option -d"),
    (["homology", "-"], "homology has no option -"),
    (["reidemeister", "m.json", "--depth"], "--depth needs a value"),
    (["reidemeister", "m.json", "--depth", "x"],
     "--depth must be an integer, got 'x'"),
    (["reidemeister", "m.json", "--depth="],
     "--depth must be an integer, got ''"),
    (["bundle-verify", "p.json", "--depth=-3"],
     "depth must be nonnegative, got -3"),
    (["bundle-verify", "p.json", "--theorem", "bad"],
     "theorem must be one of lefschetz, reidemeister, both, got 'bad'"),
    (["catalog", "bogus"], "action must be one of list, emit, got 'bogus'"),
    (["catalog", "list", "--param"], "--param needs a value"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_exits_2_with_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(USAGE)
    last = err[len(USAGE):]
    assert last.startswith("fixtrace: error: ") and last.endswith("\n")
    assert message in last and last.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["homology", "-h"],
                                  ["catalog", "emit", "circle", "--help"],
                                  ["reidemeister", "--depth", "x", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr() == (USAGE, "")


def _documents_by_exit_code(tmp_path):
    """(argv, exit code): one document for each exit code of a command."""
    wrong_records = reflection_doc()
    wrong_records["fixed_point_records"] = [
        {"label": "bogus", "index": 5, "witness": []}]
    disconnected = {"vertices": ["a", "b"], "simplices": [["a"], ["b"]]}
    return [
        (["homology", write(tmp_path, "k.json", triangle_doc())], EXIT_OK),
        (["reidemeister", write(tmp_path, "w.json", wrong_records)], 1),
        (["lefschetz", write(tmp_path, "x.json", {"complex": {}})],
         EXIT_INPUT),
        (["reidemeister", write(tmp_path, "d.json", {
            "complex": disconnected,
            "vertex_images": {"a": "a", "b": "b"}})], EXIT_UNSUPPORTED),
    ]


def test_module_run_matches_main(tmp_path, capsys):
    """``python -m fixtrace.cli`` ends through ``run``: it prints what
    ``main`` prints in-process and exits with the code ``main`` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, want_code in _documents_by_exit_code(tmp_path):
        code, out, err = run_cli(capsys, *argv)
        assert code == want_code, argv
        proc = subprocess.run([sys.executable, "-m", "fixtrace.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == code, argv
        assert proc.stdout == out.encode("utf-8"), argv
        assert proc.stderr.decode("utf-8") == err, argv


def test_run_freezes_the_heap_and_keeps_atexit_handlers():
    script = ("import atexit, gc, sys\n"
              "def report():\n"
              "    print('frozen', gc.get_freeze_count() > 0)\n"
              "atexit.register(report)\n"
              "sys.argv = ['fixtrace', 'catalog', 'list']\n"
              "from fixtrace.cli import run\n"
              "run()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith("circle\t")
    assert proc.stdout.endswith("\nfrozen True\n")


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------

def _pair_doc():
    return serialize_pair(cat.double_cover_reflection_pair())


def _records_without_witness():
    doc = reflection_doc()
    doc["fixed_point_records"] = [{"label": "z=1", "index": 1}]
    return ["reidemeister", doc]


def _mutated_pair(mutate, doc=None):
    doc = _pair_doc() if doc is None else doc
    mutate(doc)
    return ["bundle-verify", doc]


def _mutated_map(command, mutate):
    doc = reflection_doc()
    mutate(doc)
    return [command, doc]


def _mutated_degree_pair(mutate):
    return _mutated_pair(mutate, serialize_pair(cat.circle_degree_pair(2)))


# Each builder returns argv; dict entries are written to a file first.
MALFORMED = {
    "simplices-not-lists": lambda: [
        "homology", {"vertices": ["0", "1"], "simplices": [1, 2]}],
    "record-without-witness": _records_without_witness,
    "edge-word-sign-x": lambda: _mutated_pair(
        lambda d: d["base_map"]["edge_words"].update(e0=[["e0", "x"]])),
    "fiber-maps-as-list": lambda: _mutated_pair(
        lambda d: d.update(fiber_maps=list(d["fiber_maps"].values()))),
    "emit-circle-n1": lambda: ["catalog", "emit", "circle", "--param", "n=1"],
    "basepath-sign-x": lambda: _mutated_pair(
        lambda d: d["base_map"].update(basepath=[["e0", "x"]])),
    "transports-as-list": lambda: _mutated_pair(
        lambda d: d["bundle"].update(transports=[])),
    "total-map-bad-vertex": lambda: _mutated_pair(
        lambda d: d.update(total_map={"vertex_images": {"c": "v"}})),
    "map-vertex-images-int": lambda: _mutated_map(
        "lefschetz", lambda d: d.update(vertex_images=1)),
    "map-image-list": lambda: _mutated_map(
        "lefschetz", lambda d: d["vertex_images"].update({"0": [1, 2]})),
    "map-basepath-int": lambda: _mutated_map(
        "lefschetz", lambda d: d.update(basepath=1)),
    "map-basepath-int-steps": lambda: _mutated_map(
        "reidemeister", lambda d: d.update(basepath=[1, 2])),
    "transport-map-images-string": lambda: _mutated_degree_pair(
        lambda d: d["bundle"]["transports"]["e0"]["map"].update(
            vertex_images="x")),
    "transport-inverse-images-nested": lambda: _mutated_degree_pair(
        lambda d: d["bundle"]["transports"]["e0"]["inverse"].update(
            vertex_images=[[]])),
    "fiber-map-images-nested": lambda: _mutated_degree_pair(
        lambda d: d["fiber_maps"]["b0"].update(vertex_images=[[]])),
    "base-basepath-list-edge": lambda: _mutated_degree_pair(
        lambda d: d["base_map"].update(basepath=[[["a", "b"], 1]])),
    "map-unknown-key": lambda: _mutated_map(
        "lefschetz", lambda d: d.update(fixed_pointz=[])),
    "pair-unknown-key": lambda: _mutated_pair(
        lambda d: d.update(total_mapp={})),
    "bundle-unknown-key": lambda: _mutated_pair(
        lambda d: d["bundle"].update(extra=1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    argv = [write(tmp_path, "doc.json", a) if isinstance(a, dict) else a
            for a in MALFORMED[case]()]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("case, command, message", [
    ("map-unknown-key", "lefschetz",
     "map document has unknown field 'fixed_pointz'"),
    ("map-unknown-key", "reidemeister",
     "map document has unknown field 'fixed_pointz'"),
    ("pair-unknown-key", "bundle-verify",
     "pair document has unknown field 'total_mapp'"),
    ("bundle-unknown-key", "bundle-verify",
     "bundle document has unknown field 'extra'"),
])
def test_unknown_key_is_named(tmp_path, capsys, case, command, message):
    doc = MALFORMED[case]()[1]
    code, out, err = run_cli(capsys, command, write(tmp_path, "d.json", doc))
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


def _reflection_records(index, witness):
    """The circle reflection's two fixed points; the first one varied."""
    doc = reflection_doc()
    doc["fixed_point_records"] = [
        {"label": "z=1", "index": index, "witness": witness},
        {"label": "z=-1", "index": 1, "witness": []}]
    return ["reidemeister", doc]


def _torus_records(entry):
    doc = _torus_map_documents(4)["torus4-negation"]
    doc["fixed_point_records"] = [
        {"label": "p", "index": 1, "witness": [entry, 0]}]
    return ["reidemeister", doc]


# Integer fields of the documents: a builder of argv from the field's
# value, the valid value it is tried with, and whether it is a sign.
INTEGER_FIELDS = {
    "edge-word-sign": (lambda x: _mutated_pair(
        lambda d: d["base_map"]["edge_words"].update(e0=[["e3", x]])), -1,
        True),
    "basepath-sign": (lambda x: _mutated_pair(
        lambda d: d["base_map"].update(basepath=[["e0", x], ["e0", -1]])), 1,
        True),
    "record-index": (lambda x: _reflection_records(x, [[0, 1]]), 1, False),
    "record-witness-generator": (
        lambda x: _reflection_records(1, [[x, 1]]), 0, False),
    "record-witness-exponent": (
        lambda x: _reflection_records(1, [[0, x]]), 1, False),
    "record-witness-entry": (_torus_records, 0, False),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_reject_lookalikes(tmp_path, capsys, field):
    """Only a JSON integer is an integer; a sign is the integer 1 or -1."""
    build, valid, is_sign = INTEGER_FIELDS[field]

    def run(value):
        return run_cli(capsys, *[
            write(tmp_path, "doc.json", a) if isinstance(a, dict) else a
            for a in build(value)])

    assert run(valid)[0] != EXIT_INPUT
    # each of these reads as ``valid`` under int()
    lookalikes = [float(valid), str(valid), valid + (0.7 if valid >= 0 else -0.7)]
    if valid in (0, 1):
        lookalikes.append(bool(valid))
    if is_sign:
        lookalikes += [0, 2 * valid]
    for value in lookalikes:
        code, out, err = run(value)
        assert (code, out) == (EXIT_INPUT, ""), value
        assert err.startswith("error: "), value


def test_reidemeister_disconnected_complex_exit3(tmp_path, capsys):
    two_triangles = {
        "vertices": ["a0", "a1", "a2", "b0", "b1", "b2"],
        "simplices": [["a0", "a1"], ["a1", "a2"], ["a0", "a2"],
                      ["b0", "b1"], ["b1", "b2"], ["b0", "b2"]]}
    empty = {"vertices": [], "simplices": []}
    for k in (two_triangles, empty):
        doc = {"complex": k, "vertex_images": {v: v for v in k["vertices"]}}
        path = write(tmp_path, "k.json", doc)
        code, out, _ = run_cli(capsys, "reidemeister", path)
        assert code == EXIT_UNSUPPORTED
        rep = json.loads(out)
        assert rep["verdict"] == "unsupported"
        assert rep["flags"] == [
            "universal-cover lifts need a connected complex"]


# ---------------------------------------------------------------------------
# catalog command
# ---------------------------------------------------------------------------

def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert [tuple(line.split("\t")[:2]) for line in out.splitlines()] == [
        ("circle", "complex"),
        ("circle_degree_map", "bundle_pair"),
        ("circle_reflection", "selfmap"),
        ("double_cover_reflection", "bundle_pair"),
        ("figure_eight", "complex"),
        ("fixed_point_free_rotation", "bundle_pair"),
        ("point", "complex"),
        ("torus7", "complex"),
        ("trivial_product", "bundle_pair"),
    ]


def test_catalog_emit_unknown_exit2(capsys):
    for name in ["nonsense", "torus_linear"]:
        code, out, err = run_cli(capsys, "catalog", "emit", name)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"unknown catalog entry {name!r}" in err


@pytest.mark.parametrize("name, param, bounds", [
    ("circle", "n=2", "an integer in [3, 10000]"),
    ("circle", "n=10001", "an integer in [3, 10000]"),
    ("circle_reflection", "n=10002", "an even integer in [4, 10000]"),
    ("circle_reflection", "n=7", "an even integer in [4, 10000]"),
    ("circle_degree_map", "d=1001", "an integer in [-1000, 1000]"),
    ("circle_degree_map", "d=-1001", "an integer in [-1000, 1000]"),
    ("circle", "n=3.5", "an integer in [3, 10000]"),
    ("circle", "n=1e999", "an integer in [3, 10000]"),
    pytest.param("circle", "n=" + "[" * 3000, "an integer in [3, 10000]",
                 id="circle-deeply-nested-n"),
])
def test_catalog_emit_size_out_of_range_exit2(capsys, name, param, bounds):
    code, out, err = run_cli(capsys, "catalog", "emit", name, "--param", param)
    assert (code, out) == (EXIT_INPUT, "")
    assert f"must be {bounds}" in err


@pytest.mark.parametrize("name, param", [
    ("circle", "n=" + "9" * 2998),
    ("circle", "n=" + "x" * 2998),
    ("circle", "n=" + "[" * 2998),
    ("circle", "n" * 2998 + "=3"),
    ("circle", "n" * 3000),
    ("trivial_product", "base_map=" + "x" * 2991),
    # past the interpreter's digit limit, json.loads raises ValueError
    ("circle", "n=" + "9" * 5000),
], ids=["digits", "text", "nested", "key", "no-equals", "map-name",
        "digit-limit"])
def test_catalog_emit_long_parameter_gives_one_short_line(capsys, name,
                                                          param):
    # The error names the offending key and cuts the echoed value short.
    code, out, err = run_cli(capsys, "catalog", "emit", name, "--param", param)
    assert (code, out) == (EXIT_INPUT, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert len(lines[0]) < 300


@pytest.mark.parametrize("name, param", [
    ("circle", "n=10000"), ("circle_reflection", "n=10000"),
    ("circle_degree_map", "d=1000"), ("circle_degree_map", "d=-1000")])
def test_catalog_emit_size_at_bound(capsys, name, param):
    code, _, _ = run_cli(capsys, "catalog", "emit", name, "--param", param)
    assert code == EXIT_OK


@pytest.mark.parametrize("out", ["a-file", "missing"])
def test_catalog_emit_unwritable_out_exit2(tmp_path, capsys, out):
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    code, stdout, err = run_cli(capsys, "catalog", "emit", "circle",
                                "--out", str(tmp_path / out))
    assert (code, stdout) == (EXIT_INPUT, "")
    assert err.startswith("error: cannot write ")


def test_catalog_emit_circle(capsys):
    code, out, _ = run_cli(capsys, "catalog", "emit", "circle",
                           "--param", "n=3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["vertices"]) == 3


def test_catalog_round_trip_complexes():
    for name in ["point", "circle", "figure_eight", "torus7"]:
        entry = cat.CATALOG[name]
        obj = entry.build(**entry.default_params)
        doc = serialize_complex(obj)
        again = parse_complex(json.loads(json.dumps(doc)))
        assert again == obj


def test_catalog_round_trip_pairs():
    for name in ["double_cover_reflection", "trivial_product",
                 "fixed_point_free_rotation", "circle_degree_map"]:
        entry = cat.CATALOG[name]
        pair = entry.build(**entry.default_params)
        doc = json.loads(json.dumps(serialize_pair(pair)))
        again = parse_pair(doc)
        assert serialize_pair(again) == serialize_pair(pair)
        assert again.base_map.vertex_images == pair.base_map.vertex_images
        assert again.base_map.edge_words == pair.base_map.edge_words


def test_catalog_round_trip_selfmap():
    from fixtrace.cli import parse_map, serialize_map_fixture
    fix = cat.circle_reflection_fixture(4)
    doc = json.loads(json.dumps(serialize_map_fixture(fix)))
    k, f, basepath, _ = parse_map(doc)
    assert k == fix.complex
    assert f.vertex_images == fix.map.vertex_images
    assert basepath == fix.basepath


def test_bundle_verify_hard_fixtures(tmp_path, capsys):
    from tests.test_bundles import (diagonal_reflection_double_cover_pair,
                                    triple_cover_conjugation_pair)
    for i, pair in enumerate([triple_cover_conjugation_pair(),
                              diagonal_reflection_double_cover_pair()]):
        doc = serialize_pair(pair)
        path = write(tmp_path, f"hard{i}.json", doc)
        code, out, _ = run_cli(capsys, "bundle-verify", path)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == "pass"
        assert rep["lhs"]["lefschetz"] == 2
        assert rep["lhs"]["nielsen"] == 2


def test_report_determinism(tmp_path, capsys):
    doc = serialize_pair(cat.double_cover_reflection_pair())
    path = write(tmp_path, "pair.json", doc)
    _, out1, _ = run_cli(capsys, "bundle-verify", path)
    _, out2, _ = run_cli(capsys, "bundle-verify", path)
    assert out1 == out2
    path2 = write(tmp_path, "m.json", reflection_doc())
    _, r1, _ = run_cli(capsys, "reidemeister", path2)
    _, r2, _ = run_cli(capsys, "reidemeister", path2)
    assert r1 == r2


def test_emit_determinism(capsys):
    code, out1, _ = run_cli(capsys, "catalog", "emit",
                            "double_cover_reflection")
    code, out2, _ = run_cli(capsys, "catalog", "emit",
                            "double_cover_reflection")
    assert out1 == out2


# SHA-256 of stdout and the exit code of the command that reads each
# catalog document, as emitted by ``catalog emit``.  Reports are a byte-exact
# contract: a refactor must reproduce these, and a deliberate change to a
# report format updates this table in the same change.
CATALOG_REPORTS = [
    ("circle", "homology", 0,
     "20a53752cbde525d45abae03744f83561e5ea756c0d8e2146d939d98e58c5114"),
    ("circle_degree_map", "bundle-verify", 3,
     "e86cbc2febda754f8c5e8a843a889472924b8c2ba7d4accd634632515eda6ad2"),
    ("circle_reflection", "lefschetz", 0,
     "5463e700c768b935999ac03b1ab27ec33cbc42217674da6865194dfd14adadc9"),
    ("circle_reflection", "reidemeister", 0,
     "498046f0e026e07f2d559ee9f33382a13c71666b2470fdb2f9d50efed13c8b07"),
    ("double_cover_reflection", "bundle-verify", 0,
     "00189bfb8cab8186cc7ec668623c171a33745045c97da72dba2cf24214bb0cd1"),
    ("figure_eight", "homology", 0,
     "6239fe39f33d8db9b8dd3e2474327d032e3b95001077b83f6592cdae7bcdd26b"),
    ("fixed_point_free_rotation", "bundle-verify", 0,
     "4e9b382655f01d4b26b479eca84597e30e7d425effad1cea0b31ee7b74264e0a"),
    ("point", "homology", 0,
     "82c67c7bc93d9a3f23cb3e3f5789a8dcafc4fcd7ec61d230618d32857ee4a3fb"),
    ("torus7", "homology", 0,
     "ca451bfdc4be841f36406273195b67ea8edb3c37640e0ea82223e94df9c7033e"),
    ("trivial_product", "bundle-verify", 0,
     "1dd5652d472e0536f9dd8301fbad100fe86d672d3b63fb68d2fec897ff04882f"),
]


def test_catalog_reports_byte_identical(tmp_path, capsys):
    assert {name for name, _, _, _ in CATALOG_REPORTS} == set(cat.CATALOG)
    for name, command, want_code, want_sha in CATALOG_REPORTS:
        _, text, _ = run_cli(capsys, "catalog", "emit", name)
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, command, str(path))
        got_sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, got_sha) == (want_code, want_sha), (name, command)


# The same pins for the single-theorem modes of ``bundle-verify`` on the
# catalog's bundle pairs: sharing per-class data between the theorems must
# not change what either computes alone.
CATALOG_THEOREM_REPORTS = {
    ("circle_degree_map", "lefschetz"): (
        3, "b0ab2af1be38e36801042e0d6a4337a075fd0c345b7767fc2ddfc2ebe2697790"),
    ("circle_degree_map", "reidemeister"): (
        3, "496837747f19e1970d727179ec37643dfc3ffbe142a1d02e97a973cc92447cb1"),
    ("double_cover_reflection", "lefschetz"): (
        0, "c64c9b50adf3d7c777d7bc9dae2bef89a71883bb8812f3be1f0ffbb70610997b"),
    ("double_cover_reflection", "reidemeister"): (
        0, "4f1426fa1d7711197c4281b905cd51890ebd157519af086ecf8622d8072d9730"),
    ("fixed_point_free_rotation", "lefschetz"): (
        0, "c375f3d6d7c9f3361cb1a04278822174dfc41c6af6d6dfc27c558180501fb26f"),
    ("fixed_point_free_rotation", "reidemeister"): (
        0, "8b302274dcf6456545dfb095680a2a18a41aab18bbda3e2df0da529c4726262e"),
    ("trivial_product", "lefschetz"): (
        0, "5806d56750c3ed475e904ec795412a4ac7e53f7a6c96c8079d7b7c0367515256"),
    ("trivial_product", "reidemeister"): (
        0, "1f5098999506ba67796b3d5ce61f712f648bb5497c20fa81b1ca8edee538c1d6"),
}


def test_catalog_single_theorem_reports_byte_identical(tmp_path, capsys):
    assert {name for name, _ in CATALOG_THEOREM_REPORTS} == {
        name for name, entry in cat.CATALOG.items()
        if entry.kind == "bundle_pair"}
    for (name, theorem), want in CATALOG_THEOREM_REPORTS.items():
        _, text, _ = run_cli(capsys, "catalog", "emit", name)
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "bundle-verify", str(path),
                               "--theorem", theorem)
        got_sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, got_sha) == want, (name, theorem)


# Exit code and SHA-256 of stdout for the staircase tori, whose Smith forms
# are the largest the catalog pin leaves out: ``homology`` on C6 x C6 and
# C7 x C7, and ``lefschetz`` on the four C6 x C6 maps.
TORUS_REPORTS = {
    ("homology", "torus6"): (
        0, "5bc80e46830b2aa9e88583f603165a4faf2fe80924d960c6888251c855bfbd14"),
    ("homology", "torus7"): (
        0, "3551a0e90f5346af1f4fb1963ea50a17134bc42d1aa515b488f73d646aacf0c6"),
    ("lefschetz", "torus6-negation"): (
        0, "c93d6e9df59dc1685afd0f3a1d1e7a57fbd51db02636f742992a97fece87f5f7"),
    ("lefschetz", "torus6-swap"): (
        0, "9904052a660332a01ac373ade937e3bdf72a1519574c4b913dccb22d63aed035"),
    ("lefschetz", "torus6-diagonal"): (
        0, "3037e52d68a32099543ae26aa62f1b661c8dcd90977e114aa9697152ac2e27db"),
    ("lefschetz", "torus6-constant"): (
        0, "ffd6a28a71eee0478f6b2a2b12ad0e90215d942e8cac34dccfb2df93a09f6e44"),
}


def test_torus_reports_byte_identical(tmp_path, capsys):
    maps = _torus_map_documents(6)
    docs = {("lefschetz", name): doc for name, doc in maps.items()}
    for n in (6, 7):
        docs["homology", f"torus{n}"] = _torus_map_documents(n)[
            f"torus{n}-negation"]["complex"]
    assert set(docs) == set(TORUS_REPORTS)
    for (command, name), doc in docs.items():
        code, out, _ = run_cli(capsys, command,
                               write(tmp_path, f"{name}.json", doc))
        got_sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, got_sha) == TORUS_REPORTS[command, name], (command, name)


# (command, document) for every catalog document and the command reading it
CATALOG_DOCUMENTS = [(command, json.loads(emit_document(name, {})[1]))
                     for name, command, _, _ in CATALOG_REPORTS]
WRONG_TYPED = [None, True, 0, -1, 2.5, "x", "", [], [[]], [1, 2], {}, {"x": 1}]


def _paths(doc, prefix=()):
    """Every key path into nested objects and lists of ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A catalog document with one or two keys deleted or values retyped."""
    command, doc = draw(st.sampled_from(CATALOG_DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPED)))
    return command, doc


@settings(derandomize=True, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_mutated_catalog_documents_never_crash(tmp_path_factory, case):
    command, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *(["--depth", "2"] if command in (
            "reidemeister", "bundle-verify") else [])])
    assert code in (0, 1, 2, 3)
    if code == EXIT_INPUT:
        assert out.getvalue() == ""


def test_catalog_emit_bad_parameters_exit_0_or_2():
    # Every entry, each of its parameter names and one unknown name, each
    # wrong-typed value and an unknown string (passed as raw text, not
    # JSON): building a document either succeeds or is an input error.
    for name, entry in sorted(cat.CATALOG.items()):
        for key in [*entry.default_params, "no_such_param"]:
            for text in [*(json.dumps(v) for v in WRONG_TYPED), "no_such_value"]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(["catalog", "emit", name, "--param",
                                 f"{key}={text}"])
                assert code in (EXIT_OK, EXIT_INPUT), (name, key, text)
                if code == EXIT_INPUT:
                    assert out.getvalue() == "", (name, key, text)


def _torus_map_documents(n):
    """The four self-maps of the staircase torus Cn x Cn, as map documents."""
    from fixtrace.simplicial import product_complex
    k = product_complex(cat.circle_complex(n), cat.circle_complex(n))
    name = {v: f"{v[0]}.{v[1]}" for v in k.vertices}
    complex_doc = {"vertices": [name[v] for v in k.vertices],
                   "simplices": [[name[v] for v in k.vertex_ids(s)]
                                 for s in k.maximal_simplices()]}

    def negation(v):
        return (str((-int(v[0]) - 1) % n), str((-int(v[1]) - 1) % n))

    maps = {"negation": negation, "swap": lambda v: (v[1], v[0]),
            "diagonal": lambda v: (v[0], v[0]),
            "constant": lambda v: ("0", "0")}
    return {f"torus{n}-{m}": {
        "complex": complex_doc,
        "vertex_images": {name[v]: name[f(v)] for v in k.vertices},
        "basepath": []} for m, f in maps.items()}


def _figure_eight_map_documents():
    """Loop swap, swap with flip and flip-both on the figure eight."""
    complex_doc = serialize_complex(cat.figure_eight_complex())
    maps = {
        "fig8-swap": {"0": "0", "1": "3", "2": "4", "3": "1", "4": "2"},
        "fig8-swap-flip": {"0": "0", "1": "3", "2": "4", "3": "2", "4": "1"},
        "fig8-flip-both": {"0": "0", "1": "2", "2": "1", "3": "4", "4": "3"},
    }
    return {m: {"complex": complex_doc, "vertex_images": images, "basepath": []}
            for m, images in maps.items()}


def _complete_graph_map_document(n, images):
    """A vertex map of the complete graph K_n, whose pi_1 is free of rank
    (n - 1)(n - 2) / 2."""
    names = [str(i) for i in range(n)]
    return {"complex": {"vertices": names,
                        "simplices": [[a, b] for i, a in enumerate(names)
                                      for b in names[i + 1:]]},
            "vertex_images": {str(i): str(j) for i, j in enumerate(images)},
            "basepath": []}


# Exit code and SHA-256 of the ``reidemeister`` report for maps over Z^2 and
# over the free groups of rank 2 and 3, which exercise the group-ring lift
# and the twisted-class search.  The C10 x C10 negation's presentation has
# 201 generators before elimination.
REIDEMEISTER_REPORTS = {
    "torus6-negation": (
        0, "9658a5861686d473fe56b9280e8efef6700824c6ee312949f15f4eceff01163b"),
    "torus6-swap": (
        0, "3c0a53f36a23611d068c67d432754297c138578dfa6f8de636485e9ff1041168"),
    "torus6-diagonal": (
        0, "8fbab5490d059ecbe4422ca0002ae0428db7f5b7f5ad108609d154e2d4013ca4"),
    "torus6-constant": (
        0, "d5f0c02f90f83864f620a5da7ad03b7496f00a1e209c0bd166b7672b0a5c3b76"),
    "torus10-negation": (
        0, "1cf6b6363fcd4bf22de98a894cb773aa702e5fbbb775dd01950f427835a21ddc"),
    "fig8-swap": (
        0, "a81dd60ff4d4e65e6916acd3e67cb3125bcc2108ff49ad84776f99b92ee7f2ee"),
    "fig8-swap-flip": (
        0, "7c230d11bab019d84a454ffd8526d12a2c29e2c549d3970b059afecf5461d050"),
    "fig8-flip-both": (
        0, "b69f2b85f794a1a1189681c10fd5cc80129356c40fdfd6e6b1dc354b3018e2aa"),
    "k4-cycle": (
        0, "afe9dc10a0e16856a93af2e3ea9a4f1d8f7a7111d749bd0a2571fab84bee4378"),
}


def test_reidemeister_reports_byte_identical(tmp_path, capsys):
    docs = {**_torus_map_documents(6), **_figure_eight_map_documents(),
            "torus10-negation": _torus_map_documents(10)["torus10-negation"],
            # K4 fixing vertex 0 and cycling 1 -> 2 -> 3: free pi_1 of rank 3
            "k4-cycle": _complete_graph_map_document(4, [0, 2, 3, 1])}
    assert set(docs) == set(REIDEMEISTER_REPORTS)
    for name, doc in docs.items():
        code, out, _ = run_cli(capsys, "reidemeister",
                               write(tmp_path, f"{name}.json", doc))
        got_sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, got_sha) == REIDEMEISTER_REPORTS[name], name


def test_k5_cycle_cancels_before_any_class_search(tmp_path, capsys,
                                                 monkeypatch):
    # The vertex 5-cycle of K5 (free pi_1 of rank 6) has no fixed point:
    # every diagonal term of its lift cancels by group element, so no
    # twisted class is ever searched, even at the default depth.
    from fixtrace import grouprings, reidemeister
    calls = []
    twisted_class = grouprings.twisted_class

    def counting(*args, **kwargs):
        calls.append(args)
        return twisted_class(*args, **kwargs)

    monkeypatch.setattr(grouprings, "twisted_class", counting)
    monkeypatch.setattr(reidemeister, "twisted_class", counting)
    doc = _complete_graph_map_document(5, [1, 2, 3, 4, 0])
    code, out, _ = run_cli(capsys, "reidemeister",
                           write(tmp_path, "k5.json", doc))
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["parameters"] == {"depth": 8}
    assert report["lhs"] == {"classes": [], "nielsen": 0, "augmentation": 0,
                             "lefschetz": 0}
    assert report["verdict"] == "pass" and report["flags"] == []
    assert calls == []


# Exit code and SHA-256 of ``bundle-verify --theorem both`` on the
# reflection x reflection product with a five-vertex circle fiber, whose
# total space has the largest presentation among the bundle pins.
FIBER5_PRODUCT_REPORT = (
    0, "a0b6ee2111213b5654aa5d485f17a38e8f213733de18aabdb0fae2f406689ce0")


def test_fiber5_product_report_byte_identical(tmp_path, capsys):
    doc = serialize_pair(cat.trivial_product_pair(fiber_size=5))
    code, out, _ = run_cli(capsys, "bundle-verify",
                           write(tmp_path, "pair.json", doc),
                           "--theorem", "both")
    got_sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, got_sha) == FIBER5_PRODUCT_REPORT


def test_relator_cap_reports_unsupported(tmp_path, capsys, monkeypatch):
    # An elimination that outgrows the relator cap leaves the group
    # unrecognized: exit 3, never a guessed group.
    from fixtrace import presentations
    monkeypatch.setattr(presentations, "_MAX_RELATOR_LENGTH", 3)
    doc = _torus_map_documents(6)["torus6-negation"]
    code, out, _ = run_cli(capsys, "reidemeister",
                           write(tmp_path, "map.json", doc))
    assert code == EXIT_UNSUPPORTED
    rep = json.loads(out)
    assert rep["verdict"] == "unsupported"
    assert rep["lhs"] is None
    assert rep["flags"] == ["fundamental group not recognized (unsupported)"]


def test_reidemeister_builds_one_classifier(tmp_path, capsys, monkeypatch):
    # Every twisted class and comparison of one command reads the Smith-form
    # data of the endomorphism's I - A, which the endomorphism builds once.
    from fixtrace import grouprings
    built = []
    real_init = grouprings._FreeAbelianClassifier.__init__

    def counting_init(self, a):
        built.append(a)
        real_init(self, a)

    monkeypatch.setattr(grouprings._FreeAbelianClassifier, "__init__",
                        counting_init)
    doc = _torus_map_documents(6)["torus6-negation"]
    code, out, _ = run_cli(capsys, "reidemeister",
                           write(tmp_path, "map.json", doc))
    assert code == EXIT_OK
    assert json.loads(out)["lhs"]["nielsen"] == 4
    assert len(built) == 1


def _relabeled_map_document(doc, seed):
    """The map document with new vertex names, a shuffled declaration
    order and shuffled simplices, each listing its vertices shuffled."""
    rng = random.Random(seed)
    old = doc["complex"]["vertices"]
    ids = list(range(len(old)))
    rng.shuffle(ids)
    name = {v: f"w{k}" for v, k in zip(old, ids)}
    order = [name[v] for v in old]
    rng.shuffle(order)
    simplices = [[name[v] for v in s] for s in doc["complex"]["simplices"]]
    for s in simplices:
        rng.shuffle(s)
    rng.shuffle(simplices)
    return {"complex": {"vertices": order, "simplices": simplices},
            "vertex_images": {name[v]: name[w]
                              for v, w in doc["vertex_images"].items()},
            "basepath": []}


def _invariants(tmp_path, capsys, doc):
    """pi_1 class and rank, Betti numbers, L, N and the sorted class
    coefficients of a map document."""
    from fixtrace.exactalg import homology
    from fixtrace.presentations import pi1_presentation
    k = parse_complex(doc["complex"])
    p = pi1_presentation(k, k.vertices[0])
    code, out, _ = run_cli(capsys, "reidemeister",
                           write(tmp_path, "map.json", doc))
    assert code == EXIT_OK
    lhs = json.loads(out)["lhs"]
    return (p.recognized_class, p.rank, homology(k.chains).betti,
            lhs["lefschetz"], lhs["nielsen"],
            sorted(c for _, c in lhs["classes"]))


@pytest.mark.parametrize("name", sorted(
    {**_torus_map_documents(6), **_figure_eight_map_documents()}))
def test_relabeling_keeps_invariants(tmp_path, capsys, name):
    # The elimination order, the spanning tree and the basepoint all follow
    # the vertex order; the group recognized and every number reported
    # must not.
    doc = {**_torus_map_documents(6), **_figure_eight_map_documents()}[name]
    want = _invariants(tmp_path, capsys, doc)
    assert want[0] in ("free", "free_abelian")
    for seed in (1, 2, 3):
        relabeled = _relabeled_map_document(doc, seed)
        assert _invariants(tmp_path, capsys, relabeled) == want, seed


# Basepaths in another homotopy class than the default tree path: a loop
# at the fixed basepoint of the figure-eight maps, and for the C6 x C6
# negation, which sends 0.0 to 5.5, a path once along the first circle
# factor and then to 5.5.
BASEPATHS = {
    "fig8-swap": [["0", "1"], ["1", "2"], ["2", "0"]],
    "fig8-swap-flip": [["0", "1"], ["1", "2"], ["2", "0"]],
    "fig8-flip-both": [["0", "1"], ["1", "2"], ["2", "0"]],
    "torus6-negation": [[f"{i}.0", f"{i + 1}.0"] for i in range(5)]
    + [["5.0", "5.5"]],
}


@pytest.mark.parametrize("name", sorted(BASEPATHS))
def test_basepath_keeps_invariants(tmp_path, capsys, name):
    # Another basepath conjugates the induced endomorphism and relabels
    # the classes; L, N and the coefficients must not change.
    doc = {**_torus_map_documents(6), **_figure_eight_map_documents()}[name]
    want = _invariants(tmp_path, capsys, doc)
    moved = {**doc, "basepath": BASEPATHS[name]}
    assert _invariants(tmp_path, capsys, moved) == want


# ---------------------------------------------------------------------------
# empty basepaths and unknown base-map ids
# ---------------------------------------------------------------------------

# Self-maps of C4 that move the basepoint "0" to "1": the rotation, and the
# reflection across the midpoints of the edges 01 and 23 (L = 2).
C4_MAPS = {"rotation": {"0": "1", "1": "2", "2": "3", "3": "0"},
           "reflection": {"0": "1", "1": "0", "2": "3", "3": "2"}}


def _c4_map(name, **fields):
    return {"complex": serialize_complex(cat.circle_complex(4)),
            "vertex_images": dict(C4_MAPS[name]), **fields}


@pytest.mark.parametrize("name", sorted(C4_MAPS))
def test_empty_map_basepath_means_the_tree_path(tmp_path, capsys, name):
    # In a map document, "basepath": [] on a map that moves the basepoint
    # reads as no basepath: the lift goes through the spanning-tree path,
    # here the edge 01.
    reports = []
    for fields in ({}, {"basepath": []}, {"basepath": [["0", "1"]]}):
        path = write(tmp_path, "map.json", _c4_map(name, **fields))
        code, out, _ = run_cli(capsys, "reidemeister", path)
        assert code == EXIT_OK
        rep = json.loads(out)
        del rep["inputs_digest"]
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["lhs"]["lefschetz"] == (0 if name == "rotation" else 2)


def test_wrong_map_basepath_exits_2(tmp_path, capsys):
    path = write(tmp_path, "map.json",
                 _c4_map("rotation", basepath=[["0", "3"]]))
    code, out, err = run_cli(capsys, "reidemeister", path)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: edge path ends at the wrong vertex\n"


def test_empty_pair_basepath_is_taken_literally(tmp_path, capsys):
    # A pair's base_map.basepath [] is the empty edge word, which a base
    # map that moves the basepoint rejects; without the field the tree
    # path is used.
    doc = serialize_pair(cat.trivial_product_pair("rotation", "identity"))
    del doc["base_map"]["basepath"]
    code, _, _ = run_cli(capsys, "bundle-verify",
                         write(tmp_path, "pair.json", doc))
    assert code == EXIT_OK
    doc["base_map"]["basepath"] = []
    code, out, err = run_cli(capsys, "bundle-verify",
                             write(tmp_path, "pair.json", doc))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: invalid pair: edge word ends at the wrong vertex\n"


# A key of the base map that names no base vertex or edge, and the mutation
# that adds it to the constant x reflection pair.
UNKNOWN_BASE_IDS = {
    "edge": ("E3", lambda bm: bm["edge_words"].update(
        E3=[["e0", 1], ["e1", 1]])),
    "vertex": ("B9", lambda bm: bm["vertex_images"].update(B9="b0")),
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_BASE_IDS))
def test_base_map_unknown_id_exits_2(tmp_path, capsys, kind):
    name, mutate = UNKNOWN_BASE_IDS[kind]
    doc = serialize_pair(cat.trivial_product_pair("constant", "reflection"))
    code, _, _ = run_cli(capsys, "bundle-verify",
                         write(tmp_path, "pair.json", doc))
    assert code == EXIT_OK
    mutate(doc["base_map"])
    code, out, err = run_cli(capsys, "bundle-verify",
                             write(tmp_path, "pair.json", doc))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: invalid base map: unknown base {kind} {name}\n"


# A key of the bundle or of the fiber maps that names no base vertex or
# edge: (where the key goes, the key, the message naming it).
UNKNOWN_PAIR_KEYS = [
    (("fiber_maps",), "B9", "pair fiber maps: 'B9' names no base vertex"),
    (("bundle", "transports"), "E9",
     "bundle transports: 'E9' names no base edge"),
    (("bundle", "fibers"), "B8", "bundle fibers: 'B8' names no base vertex"),
]


@pytest.mark.parametrize("where, key, message", UNKNOWN_PAIR_KEYS)
def test_pair_unknown_key_exits_2(tmp_path, capsys, where, key, message):
    doc = serialize_pair(cat.trivial_product_pair())
    obj = doc
    for part in where:
        obj = obj[part]
    obj[key] = copy.deepcopy(next(iter(obj.values())))
    code, out, err = run_cli(capsys, "bundle-verify",
                             write(tmp_path, "pair.json", doc))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {message}\n"


def test_repeated_json_key_exits_2(tmp_path, capsys):
    # Read with the last value of each key, these vertex images would be
    # the identity of C4 (L = 0); the first four describe a reflection.
    text = ('{"complex": %s, "vertex_images": {"0": "0", "1": "3", "2": "2", '
            '"3": "1", "1": "1", "3": "3"}}'
            % json.dumps(serialize_complex(cat.circle_complex(4))))
    path = tmp_path / "map.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "lefschetz", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: repeated key '1' in a JSON object\n"
