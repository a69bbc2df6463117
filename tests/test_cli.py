import json

import pytest

from fixtrace import catalog as cat
from fixtrace.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    main,
    parse_complex,
    parse_pair,
    serialize_complex,
    serialize_pair,
)


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
    # figure-eight base with loop-swapping map: rank-two free-group classes
    # are only heuristic, so the verdict is flagged indeterminate
    base = cat.figure_eight_base()
    bundle = cat.point_fiber_bundle(base)
    from fixtrace.bundles import BundleSelfMapPair, GraphSelfMap
    from fixtrace.simplicial import SimplicialMap
    pt = cat.point_complex()
    bmap = GraphSelfMap(base, {"b0": "b0"},
                        {"a": [("b", 1)], "b": [("a", 1)]})
    fiber_maps = {"b0": SimplicialMap(pt, pt, {"p": "p"})}
    pair = BundleSelfMapPair(bundle, bmap, fiber_maps)
    doc = serialize_pair(pair)
    path = write(tmp_path, "pair.json", doc)
    code, out, _ = run_cli(capsys, "bundle-verify", path, "--depth", "2")
    assert code == EXIT_UNSUPPORTED
    assert json.loads(out)["verdict"] in ("indeterminate", "unsupported")


def test_bundle_verify_builds_total_space_and_lift_once(tmp_path, capsys,
                                                       monkeypatch):
    from fixtrace import bundles
    pair = cat.trivial_product_pair("reflection", "reflection")
    path = write(tmp_path, "pair.json", serialize_pair(pair))
    built = []
    lifted = []
    real_total_space = bundles.total_space
    real_lift = bundles.lift_self_map

    def counting_total_space(bundle):
        total = real_total_space(bundle)
        built.append(total.complex)
        return total

    def counting_lift(k, f, *args, **kwargs):
        lifted.append(k)
        return real_lift(k, f, *args, **kwargs)

    monkeypatch.setattr(bundles, "total_space", counting_total_space)
    monkeypatch.setattr(bundles, "lift_self_map", counting_lift)
    code, out, _ = run_cli(capsys, "bundle-verify", path)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"
    assert len(built) == 1
    assert sum(1 for k in lifted if k == built[0]) == 1


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
# catalog command
# ---------------------------------------------------------------------------

def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == EXIT_OK
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    for required in ["point", "circle", "figure_eight", "torus7",
                     "circle_degree_map", "circle_reflection", "torus_linear",
                     "double_cover_reflection", "trivial_product",
                     "fixed_point_free_rotation"]:
        assert required in names


def test_catalog_emit_unknown_exit2(capsys):
    code, out, err = run_cli(capsys, "catalog", "emit", "nonsense")
    assert code == EXIT_INPUT


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


def test_catalog_emit_chain_model(capsys):
    code, out, _ = run_cli(capsys, "catalog", "emit", "torus_linear")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "torus_linear"
    # the parameter document rebuilds the same model
    entry = cat.CATALOG["torus_linear"]
    model = entry.build(**{k: v for k, v in doc["parameters"].items()})
    from fixtrace.reidemeister import reidemeister_trace_chain
    from fixtrace.grouprings import augment
    assert augment(reidemeister_trace_chain(model)) == -1


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
