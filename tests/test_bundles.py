import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtrace.bundles import (
    BundleError,
    BundleSelfMapPair,
    DiscreteBundle,
    GraphBase,
    GraphSelfMap,
    NotConstructibleError,
    Transport,
    base_reidemeister,
    fiber_composite,
    nielsen_additivity,
    refined_reidemeister,
    total_map,
    total_space,
    transport,
    verify_lefschetz_mult,
    verify_reidemeister_mult,
)
from fixtrace.catalog import (
    circle_base,
    circle_complex,
    circle_degree_pair,
    degree_base_map,
    double_cover_oracle,
    double_cover_reflection_pair,
    fixed_point_free_rotation_pair,
    trivial_product_pair,
)
from fixtrace.exactalg import homology
from fixtrace.grouprings import (DEFAULT_DEPTH, EQUAL, TwistedClass, augment,
                                 nielsen, shadow_equal, twisted_class)
from fixtrace.reidemeister import (reidemeister_trace_chain,
                                   reidemeister_trace_geometric)
from fixtrace.simplicial import (SimplicialMap, build_complex, chain_complex,
                                 lefschetz_number)
from tests.oracles import (check_class_paths, disjoint_union,
                           figure_eight_base, k4_point_fiber_pair,
                           two_component_euler_fixtures)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _is_identity(f):
    """Whether the simplicial map ``f`` is the identity of its source."""
    return f.target == f.source and f.vertex_images == {
        v: v for v in f.source.vertices}


def test_transport_empty_word_identity():
    pair = double_cover_reflection_pair()
    t = transport(pair.bundle, [], "b0")
    assert _is_identity(t)


def test_transport_full_loop_is_swap():
    pair = double_cover_reflection_pair()
    loop = [("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)]
    t = transport(pair.bundle, loop, "b0")
    assert t.vertex_images == {"0": "1", "1": "0"}


def test_transport_roundtrip_homology_identity():
    pair = trivial_product_pair("identity", "identity")
    word = [("e0", 1), ("e0", -1)]
    t = transport(pair.bundle, word, "b0")
    assert _is_identity(t)


def test_transport_functorial_on_homology():
    pair = double_cover_reflection_pair()
    w1 = [("e0", 1), ("e1", 1)]
    w2 = [("e2", 1), ("e3", 1)]
    t12 = transport(pair.bundle, w1 + w2, "b0")
    t2_after_t1 = transport(pair.bundle, w2, "b2").compose(
        transport(pair.bundle, w1, "b0"))
    assert t12.vertex_images == t2_after_t1.vertex_images


# ---------------------------------------------------------------------------
# base classes and base Reidemeister trace
# ---------------------------------------------------------------------------

def test_base_reidemeister_reflection():
    pair = double_cover_reflection_pair()
    r = base_reidemeister(pair, DEFAULT_DEPTH)
    assert augment(r) == 2
    assert nielsen(r, DEFAULT_DEPTH) == 2
    assert sorted(c for _, c in r.items()) == [1, 1]


def test_base_reidemeister_degree_family():
    for d in (-3, -2, -1, 0, 2, 3, 4):
        pair = circle_degree_pair(d)
        r = base_reidemeister(pair, DEFAULT_DEPTH)
        assert augment(r) == 1 - d
        count = abs(1 - d)
        assert len(r.terms) == count
        sign = 1 if 1 - d > 0 else -1
        assert all(c == sign for _, c in r.items())


def test_base_reidemeister_rotation_empty():
    pair = fixed_point_free_rotation_pair()
    r = base_reidemeister(pair, DEFAULT_DEPTH)
    assert r.is_zero()


# ---------------------------------------------------------------------------
# fiber composites and refined L
# ---------------------------------------------------------------------------

def class_composite(pair, cls):
    """Fiber composite over the basepoint along the class's path."""
    return fiber_composite(pair, pair.bundle.base.basepoint,
                           pair.class_path(cls))


def test_fiber_composites_example():
    pair = double_cover_reflection_pair()
    r = base_reidemeister(pair, DEFAULT_DEPTH)
    values = {}
    for cls, ind in r.items():
        values[cls.key] = lefschetz_number(class_composite(pair, cls))
    assert sorted(values.values()) == [0, 2]


def test_refined_lefschetz_representative_independent():
    pair = double_cover_reflection_pair()
    base = pair.bundle.base
    for c, _ in base_reidemeister(pair, DEFAULT_DEPTH).items():
        want = lefschetz_number(class_composite(pair, c))
        # alternate representatives (b', alpha^-1 . gamma . fbar(alpha))
        alphas = [[], [("e0", 1)], [("e0", 1), ("e1", 1)],
                  [("e3", -1)], [("e0", 1), ("e1", 1), ("e2", 1)],
                  [("e0", 1), ("e0", -1)], [("e3", -1), ("e2", -1)],
                  [("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)],
                  [("e3", -1), ("e3", 1)],
                  [("e0", 1), ("e1", 1), ("e1", -1)]]
        for alpha in alphas:
            end = base.step_endpoints(alpha[-1])[1] if alpha else "b0"
            gamma2 = ([(e, -s) for (e, s) in reversed(alpha)]
                      + pair.class_path(c) + pair.base_map.apply_word(alpha))
            base.validate_word(gamma2, end, pair.base_map.vertex_images[end])
            got = lefschetz_number(fiber_composite(pair, end, gamma2))
            assert got == want


def test_class_path_ignores_the_twisted_representative():
    # Over the figure eight with a 3-point fiber whose transports generate
    # S_3, representatives r and phi(h) r h^-1 of one class must give
    # conjugate fiber maps.  The class path r^-1 . basepath does; following
    # r would give the class of 1 fiber maps with 0 and 3 fixed points.
    pts = build_complex([("0",), ("1",), ("2",)], vertices=["0", "1", "2"])

    def permutation(images):
        inverse = {w: v for v, w in images.items()}
        return Transport(SimplicialMap(pts, pts, images),
                         SimplicialMap(pts, pts, inverse))

    base = figure_eight_base()
    bundle = DiscreteBundle(base, {"b0": pts}, {
        "a": permutation({"0": "0", "1": "2", "2": "1"}),
        "b": permutation({"0": "1", "1": "2", "2": "0"})})
    base_map = GraphSelfMap(base, {"b0": "b0"},
                            {"a": [("a", 1), ("b", 1)], "b": [("b", 1)]})
    pair = BundleSelfMapPair(bundle, base_map, {"b0": SimplicialMap(
        pts, pts, {"0": "2", "1": "0", "2": "1"})})
    group, phi = base.group, pair.base_lift().endo
    values = {}
    for cls, _ in base_reidemeister(pair, DEFAULT_DEPTH).items():
        want = values[cls.rep] = lefschetz_number(class_composite(pair, cls))
        for h in (((0, 1),), ((1, -1),), ((0, 1), (1, 1))):
            rep = group.mul(group.mul(phi.apply(h), cls.rep), group.inv(h))
            other = TwistedClass(cls.key, rep, cls.certainty)
            assert lefschetz_number(class_composite(pair, other)) == want
    assert values == {(): 0}


def test_trivial_bundle_composite_is_fiber_map():
    pair = trivial_product_pair("identity", "reflection")
    group = pair.bundle.base.group
    for w in ((), ((0, 1),), ((0, -1),)):
        c = twisted_class(group, pair.base_lift().endo, w, 1)
        assert lefschetz_number(class_composite(pair, c)) == 2


# ---------------------------------------------------------------------------
# total spaces
# ---------------------------------------------------------------------------

def test_total_space_point_fiber_circle():
    pair = circle_degree_pair(2)
    total = total_space(pair.bundle)
    h = homology(chain_complex(total.complex))
    assert h.betti == (1, 1)


def test_total_space_double_cover_connected_circle():
    pair = double_cover_reflection_pair()
    total = total_space(pair.bundle)
    k = total.complex
    assert len(k.components()) == 1
    assert homology(chain_complex(k)).betti == (1, 1)
    assert k.euler_characteristic() == 0


def test_total_space_trivial_product_torus():
    pair = trivial_product_pair("identity", "identity")
    total = total_space(pair.bundle)
    h = homology(chain_complex(total.complex))
    assert h.betti == (1, 2, 1)
    assert total.complex.euler_characteristic() == 0


def test_total_map_identity_pair():
    pair = trivial_product_pair("identity", "identity")
    total, f = total_map(pair)
    assert _is_identity(f)


def test_total_map_double_cover():
    pair = double_cover_reflection_pair()
    total, f = total_map(pair)
    assert lefschetz_number(f) == 2


def test_total_map_not_constructible_for_long_words():
    pair = circle_degree_pair(2)
    with pytest.raises(NotConstructibleError):
        total_map(pair)


def test_lift_tracks_realize_transport():
    pair = double_cover_reflection_pair()
    total = total_space(pair.bundle)
    path, end = total.transport_track([("e3", 1)], "b3", "0")
    assert end == "1"
    assert path == [("v", "b3", "0"), ("m", "e3", "0"), ("v", "b0", "1")]
    k = total.complex
    for a, b in zip(path, path[1:]):
        i, j = k.index[a], k.index[b]
        assert k.has_simplex((min(i, j), max(i, j)))


# SHA-256 of json.dumps([vertices, maximal simplices]) of each total space:
# the vertex declaration order and every prism piece, staircase prisms on
# the S^2 product, centered squares under a reflection transport on the
# Klein bottle, 0-simplex prisms on the double cover of the circle.
TOTAL_SPACE_SHA256 = {
    "sphere": "743655d02f2b47b3fab3a76d166d7bcf0da30b2ca4886b0d536ec151f17c6c0a",
    "klein": "acdad9d4310577b9b55e1111ecc1a528ed21cc3ce0208823dcd531c90231ddc2",
    "double_cover":
        "9c8627a10b9d89e053187dc852b0aef9cdb74fc38b6cc58b3077dfc67e34115e",
}


@pytest.mark.parametrize("name", sorted(TOTAL_SPACE_SHA256))
def test_total_space_triangulation_pinned(name):
    pair = {"sphere": lambda: sphere_product_pair(0, "identity"),
            "klein": klein_bundle_pair,
            "double_cover": double_cover_reflection_pair}[name]()
    k = total_space(pair.bundle).complex
    doc = [list(k.vertices),
           [list(k.vertex_ids(s)) for s in k.maximal_simplices()]]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == TOTAL_SPACE_SHA256[name]


def _interval_bundle(simplices, images):
    from fixtrace.bundles import DiscreteBundle, Transport
    from fixtrace.simplicial import SimplicialMap, build_complex
    from tests.oracles import interval_base
    base = interval_base()
    fib = build_complex(simplices, sorted(images))
    t = SimplicialMap(fib, fib, images)
    return DiscreteBundle(base, {v: fib for v in base.vertices},
                          {"e0": Transport(t, t)})


def test_total_space_rejects_transport_not_injective_on_a_simplex():
    bundle = _interval_bundle([("a", "b")], {"a": "a", "b": "a"})
    with pytest.raises(NotConstructibleError,
                       match=r"^transport e0 \(upper\) is not injective "
                             r"on a simplex$"):
        total_space(bundle)


def test_total_space_rejects_transport_not_monotone_on_a_simplex():
    # the same swap on a circle fiber is accepted (the Klein bottle)
    bundle = _interval_bundle([("0", "1", "2")],
                              {"0": "0", "1": "2", "2": "1"})
    with pytest.raises(NotConstructibleError,
                       match=r"^transport e0 \(upper\) is not monotone on a "
                             r"simplex; cannot triangulate the prism$"):
        total_space(bundle)


# ---------------------------------------------------------------------------
# Theorem verifications
# ---------------------------------------------------------------------------

def test_verify_lefschetz_example():
    pair = double_cover_reflection_pair()
    report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == 2
    assert report.rhs == 2
    assert sorted((row["ind"], row["fiber_lefschetz"]) for row in report.rows) \
        == [(1, 0), (1, 2)]


def test_verify_lefschetz_trivial_products():
    from fixtrace.catalog import BASE_LEFSCHETZ, FIBER_LEFSCHETZ
    for bname in ("identity", "reflection", "constant", "rotation"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
            assert report.verdict == "pass", (bname, fname, report)
            assert report.lhs == BASE_LEFSCHETZ[bname] * FIBER_LEFSCHETZ[fname]


def test_verify_lefschetz_identity_pair_euler():
    pair = trivial_product_pair("identity", "identity")
    report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == 0


def test_verify_lefschetz_corrupted_transport_fails():
    # deliberately break the compatibility: reflection fiber map over one
    # vertex only is rejected outright
    from fixtrace.catalog import circle_complex
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphSelfMap, Transport)
    from fixtrace.simplicial import SimplicialMap
    base = circle_base(4)
    fib = circle_complex(3)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    refl = SimplicialMap(fib, fib, {"0": "0", "1": "2", "2": "1"})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    bmap = degree_base_map(base, 1)
    fiber_maps = {v: (refl if v == "b0" else ident) for v in base.vertices}
    with pytest.raises(BundleError):
        BundleSelfMapPair(bundle, bmap, fiber_maps)


def test_verify_reidemeister_example():
    pair = double_cover_reflection_pair()
    report = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == report.rhs
    assert sorted(c for _, c in report.lhs) == [1, 1]


def test_verify_reidemeister_example_against_oracle():
    from tests.chain_models import materialize_records
    pair = double_cover_reflection_pair()
    lifted = pair.total_lift
    group = lifted.complex.presentation.group
    lhs = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    oracle = double_cover_oracle()
    records = materialize_records(oracle["records"], group)
    geo = reidemeister_trace_geometric(records, group, lifted.endo,
                                       DEFAULT_DEPTH)
    assert shadow_equal(lhs, geo, DEFAULT_DEPTH) == EQUAL


def test_verify_reidemeister_trivial_products():
    for bname in ("identity", "reflection", "constant", "rotation"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            report = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
            assert report.verdict == "pass", (bname, fname, report.flags)


def test_verify_reidemeister_fixed_point_free():
    pair = fixed_point_free_rotation_pair()
    report = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == []
    assert report.rhs == []


def test_reflection_product_lattice_oracle():
    # base reflection x fiber reflection is the torus map -I:
    # N = det(I-(-I)) = 4 classes, all coefficients +1
    pair = trivial_product_pair("reflection", "reflection")
    r = reidemeister_trace_chain(pair.total_lift, DEFAULT_DEPTH)
    assert augment(r) == 4
    assert nielsen(r, DEFAULT_DEPTH) == 4
    assert all(c == 1 for _, c in r.items())


def test_nielsen_additivity_example():
    pair = double_cover_reflection_pair()
    report = nielsen_additivity(pair, DEFAULT_DEPTH)
    assert report.lhs == 2
    assert report.rhs == 2
    assert report.verdict == "pass"
    assert (report.theorem, report.key, report.flags) == (
        "nielsen_additivity", "nielsen", [])
    assert all(set(row) == {"class", "count"} for row in report.rows)
    assert sum(row["count"] for row in report.rows) == report.rhs


def test_nielsen_additivity_fixed_point_free():
    pair = fixed_point_free_rotation_pair()
    report = nielsen_additivity(pair, DEFAULT_DEPTH)
    assert report.lhs == 0
    assert report.rhs == 0
    assert report.rows == []


def test_nielsen_additivity_products():
    for bname in ("reflection", "constant"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            report = nielsen_additivity(pair, DEFAULT_DEPTH)
            assert report.lhs == report.rhs, (bname, fname)


def test_all_catalog_bundle_pairs_verify():
    # a Fail from either verifier on any catalog fixture is build-breaking
    from fixtrace.catalog import CATALOG
    for name, entry in sorted(CATALOG.items()):
        if entry.kind != "bundle_pair":
            continue
        pair = entry.build(**entry.default_params)
        try:
            rep = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
            assert rep.verdict == "pass", (name, rep.flags)
            rep2 = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
            assert rep2.verdict == "pass", (name, rep2.flags)
        except NotConstructibleError:
            # degree-two dynamics need subdivision; the refined side still
            # computes and matches the analytic value
            assert name == "circle_degree_map"
            r = base_reidemeister(pair, DEFAULT_DEPTH)
            rhs = sum(ind * lefschetz_number(class_composite(pair, cls))
                      for cls, ind in r.items())
            assert rhs == -1  # L(z -> z^2)


def test_every_k4_point_fiber_pair_verifies():
    # A point fiber pushes its class [1] to the class of the loop its track
    # closes: the class path (the inverse of the representative, then the
    # basepath) and the pushforward rule [g] -> [u * iota(g)] must agree.
    # Either one alone fails 6 of the 256 pairs, (1, 2, 0, 3) among them.
    # Each class path must run from the basepoint to its image.
    verdicts = []
    for images in itertools.product(range(4), repeat=4):
        pair = k4_point_fiber_pair(images)
        verdicts.append(verify_reidemeister_mult(pair, 3).verdict)
        check_class_paths(pair, 3)
    assert verdicts == ["pass"] * 256


def test_theta_fiber_trace_lands_in_the_total_class():
    # Theta fibers over an interval declared b1 first, so the total-space
    # tree reaches the fiber over the basepoint b0 through the prism; the
    # transport swaps two arcs, and pi_1(E) is free of rank two.  The
    # correction loop u is not central here: [iota(g) * u^-1] would read
    # [g0^-1] and "fail", and the inverse conjugation fails the check.
    arcs = [[("0", m), (m, "1")] for m in "234"]
    theta = build_complex([e for arc in arcs for e in arc],
                          vertices=list("01234"))
    swap = SimplicialMap(theta, theta,
                         {"0": "0", "1": "1", "2": "3", "3": "2", "4": "4"})
    base = GraphBase(["b1", "b0"], [("e0", "b0", "b1")], ["e0"], "b0")
    bundle = DiscreteBundle(base, {"b0": theta, "b1": theta},
                            {"e0": Transport(swap, swap)})
    base_map = GraphSelfMap(base, {"b0": "b0", "b1": "b1"},
                            {"e0": [("e0", 1)]})
    f0 = SimplicialMap(theta, theta,
                       {"0": "1", "1": "0", "2": "2", "3": "4", "4": "3"})
    pair = BundleSelfMapPair(bundle, base_map, {
        "b0": f0, "b1": swap.compose(f0).compose(swap)})
    assert pair.total_lift.complex.group.rank == 2
    rep = verify_reidemeister_mult(pair, 4)
    assert (rep.verdict, rep.lhs, rep.rhs) == ("pass", [["[g0^1]", 1]],
                                               [["[g0^1]", 1]])
    assert nielsen_additivity(pair, 4).verdict == "pass"


def test_two_component_euler():
    fixtures = two_component_euler_fixtures()
    total_chi = 0
    complexes = []
    for pair, expected in fixtures:
        report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
        assert report.verdict == "pass"
        assert report.lhs == expected
        total = total_space(pair.bundle)
        complexes.append(total.complex)
        total_chi += expected
    union = disjoint_union(complexes[0], complexes[1])
    assert union.euler_characteristic() == total_chi


def sphere_product_pair(base_degree, fiber_map_name):
    # S^2 fiber (the boundary of a tetrahedron) with identity transports:
    # a 2-dimensional fiber, so the total space is built from staircase
    # prisms and has dimension 3.
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  Transport)
    from fixtrace.simplicial import SimplicialMap, build_complex
    base = circle_base(4)
    fib = build_complex([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"),
                         ("1", "2", "3")], ["0", "1", "2", "3"])
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    fmap = {"identity": ident,
            "constant": SimplicialMap(fib, fib, {v: "0" for v in fib.vertices})
            }[fiber_map_name]
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    return BundleSelfMapPair(bundle, degree_base_map(base, base_degree),
                             {v: fmap for v in base.vertices})


@pytest.mark.parametrize("base_degree, fiber_map_name, fiber_values", [
    (0, "identity", [2]),       # constant base (L 1) x identity on S^2 (L 2)
    (-1, "constant", [1, 1]),   # reflection base (L 2) x constant (L 1)
])
def test_sphere_fiber_staircase_prisms(tmp_path, capsys, base_degree,
                                       fiber_map_name, fiber_values):
    from fixtrace.cli import EXIT_UNSUPPORTED, main, serialize_pair
    pair = sphere_product_pair(base_degree, fiber_map_name)
    total, _ = pair.total
    assert total.complex.dim == 3
    assert homology(chain_complex(total.complex)).betti == (1, 1, 1, 1)
    report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == report.rhs == 2
    assert [row["fiber_lefschetz"] for row in report.rows] == fiber_values
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(serialize_pair(pair)), encoding="utf-8")
    code = main(["bundle-verify", str(path), "--theorem", "reidemeister"])
    rep = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSUPPORTED
    assert rep["flags"] == ["universal-cover lifts support dimension at most 2"]


def klein_bundle_pair():
    # circle fiber with orientation-reversing monodromy: the total space
    # is a Klein bottle
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  Transport)
    from fixtrace.simplicial import SimplicialMap
    base = circle_base(4)
    fib = circle_complex(3)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    refl = SimplicialMap(fib, fib, {"0": "0", "1": "2", "2": "1"})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    transports["e3"] = Transport(refl, refl)
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    bmap = degree_base_map(base, 1)
    fiber_maps = {v: ident for v in base.vertices}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def test_klein_bottle_total_space():
    pair = klein_bundle_pair()
    total = total_space(pair.bundle)
    h = homology(chain_complex(total.complex))
    assert h.betti == (1, 1, 0)
    assert h.torsion[1] == (2,)
    assert total.complex.euler_characteristic() == 0


def test_klein_bottle_identity_lefschetz_verification():
    pair = klein_bundle_pair()
    report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert report.lhs == 0


def test_klein_bottle_reidemeister_unsupported():
    from fixtrace.reidemeister import UnsupportedComplexError
    pair = klein_bundle_pair()
    with pytest.raises(UnsupportedComplexError):
        verify_reidemeister_mult(pair, DEFAULT_DEPTH)


def test_klein_bottle_cli_both_prints_lefschetz_table(tmp_path, capsys):
    from fixtrace.cli import EXIT_UNSUPPORTED, main, serialize_pair
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(serialize_pair(klein_bundle_pair())),
                    encoding="utf-8")
    code = main(["bundle-verify", str(path), "--theorem", "both"])
    rep = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNSUPPORTED
    assert rep["verdict"] == "unsupported"
    assert [t["theorem"] for t in rep["tables"]] == ["lefschetz"]
    assert rep["lhs"] == {"lefschetz": 0}
    assert rep["rhs"] == {"lefschetz": 0}


def test_larger_fiber_product():
    pair = trivial_product_pair("reflection", "reflection", fiber_size=4)
    report = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert report.verdict == "pass"
    assert sorted(c for _, c in report.lhs) == [1, 1, 1, 1]


def test_torus_linear_larger_entries():
    from tests.chain_models import (torus_lattice_oracle,
                                    torus_linear_chain_model)
    from fixtrace.grouprings import EQUAL, augment, nielsen, shadow_equal
    from fixtrace.reidemeister import (reidemeister_trace_chain,
                                       reidemeister_trace_geometric)
    for a in ([[3, 5], [1, 2]], [[0, -3], [4, 1]], [[-4, 1], [2, -3]]):
        model = torus_linear_chain_model(a)
        r = reidemeister_trace_chain(model, DEFAULT_DEPTH)
        oracle = torus_lattice_oracle(a)
        assert augment(r) == oracle["lefschetz"]
        assert nielsen(r, DEFAULT_DEPTH) == oracle["nielsen"]
        geo = reidemeister_trace_geometric(oracle["records"],
                                           model.complex.group, model.endo,
                                           DEFAULT_DEPTH)
        assert shadow_equal(r, geo, DEFAULT_DEPTH) == EQUAL


def reference_divide_one_minus(p, v):
    """The quadratic loop: scan the whole remainder for its greatest term
    at every step and rebuild it."""
    from fixtrace.grouprings import GroupRingElement
    from fixtrace.grouprings import GroupError
    rem = {g: c for g, c in p.terms.values()}
    quot = {}

    def vdeg(g):
        return sum(x * y for x, y in zip(g, v))

    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            raise GroupError("division by (1 - t^v) does not terminate")
        g = max(rem, key=lambda x: (vdeg(x), x))
        c = rem[g]
        gm = tuple(a - b for a, b in zip(g, v))
        quot[gm] = quot.get(gm, 0) - c
        rem[g] -= c
        rem[gm] = rem.get(gm, 0) + c
        rem = {k: x for k, x in rem.items() if x != 0}
    return GroupRingElement(p.group, [(g, c) for g, c in quot.items()])


def _division_outcome(divide, p, v):
    """The quotient's terms in order, or the error a division raises."""
    from fixtrace.grouprings import GroupError
    try:
        return list(divide(p, v).terms.items())
    except GroupError as exc:
        return str(exc)


_z2_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(st.lists(st.tuples(_z2_points, st.integers(-3, 3)), max_size=6),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_divide_one_minus_matches_reference(terms, v):
    from tests.chain_models import _divide_one_minus
    from fixtrace.grouprings import FreeAbelianGroup, GroupRingElement
    z2 = FreeAbelianGroup(2)
    # p = (1 - v) * q, multiplied out term by term
    one_minus_v = GroupRingElement(z2, [((0, 0), 1), (v, -1)])
    q = GroupRingElement(z2, terms)
    p = GroupRingElement(z2, [(z2.mul(g, h), c * d)
                              for g, c in one_minus_v.terms.values()
                              for h, d in q.terms.values()])
    assert (_division_outcome(_divide_one_minus, p, v)
            == _division_outcome(reference_divide_one_minus, p, v))


def test_divide_one_minus_step_guard():
    # 1 - t^(0,n) = (1 - t^(0,1))(1 + t^(0,1) + ... + t^(0,n-1)) takes n
    # steps.  Dividing by 1 - t^(0,0), or an element that 1 - t^v does not
    # divide, never ends, and the guard stops both after the same steps.
    from tests.chain_models import _divide_one_minus
    from fixtrace.grouprings import FreeAbelianGroup, GroupRingElement
    z2 = FreeAbelianGroup(2)
    stuck = "division by (1 - t^v) does not terminate"
    cases = [
        ([((0, 0), 1), ((0, 10000), -1)], (0, 1),
         [((0, k), ((0, k), 1)) for k in range(9999, -1, -1)]),
        ([((0, 0), 1), ((0, 10001), -1)], (0, 1), stuck),
        ([((0, 0), 1)], (0, 0), stuck),
        ([((1, 2), 3), ((0, -1), -2), ((2, 2), 1)], (1, 1), stuck),
    ]
    for terms, v, want in cases:
        p = GroupRingElement(z2, terms)
        assert _division_outcome(_divide_one_minus, p, v) == want
        assert _division_outcome(reference_divide_one_minus, p, v) == want


def test_divide_one_minus_matches_reference_on_torus_chain_models(monkeypatch):
    from tests import chain_models
    divisions = []
    real = chain_models._divide_one_minus

    def recording(p, v):
        divisions.append((p, v))
        return real(p, v)

    monkeypatch.setattr(chain_models, "_divide_one_minus", recording)
    for a in ([[60, 0], [0, 2]], [[-1, 0], [0, -1]], [[3, 1], [1, -2]],
              [[5, -3], [7, 2]]):
        chain_models.torus_linear_chain_model(a)
    assert len(divisions) == 4
    for p, v in divisions:
        assert (_division_outcome(real, p, v)
                == _division_outcome(reference_divide_one_minus, p, v))


def triple_cover_conjugation_pair():
    # connected 3-fold cover of the circle (monodromy of order three) with
    # the conjugation map above the base reflection; the fiber maps differ
    # from vertex to vertex
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphSelfMap, Transport)
    from fixtrace.catalog import degree_base_map
    from fixtrace.simplicial import SimplicialMap, build_complex
    base = circle_base(4)
    fib = build_complex([("0",), ("1",), ("2",)], vertices=["0", "1", "2"])
    ident = SimplicialMap(fib, fib, {s: s for s in fib.vertices})
    rho = SimplicialMap(fib, fib, {"0": "1", "1": "2", "2": "0"})
    rho2 = SimplicialMap(fib, fib, {"0": "2", "1": "0", "2": "1"})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    transports["e3"] = Transport(rho, rho2)
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    bmap = degree_base_map(base, -1)
    neg = SimplicialMap(fib, fib, {"0": "0", "1": "2", "2": "1"})
    neg_shift = SimplicialMap(fib, fib, {"0": "2", "1": "1", "2": "0"})
    fiber_maps = {"b0": neg, "b1": neg_shift, "b2": neg_shift,
                  "b3": neg_shift}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def test_triple_cover_conjugation():
    pair = triple_cover_conjugation_pair()
    total = total_space(pair.bundle)
    assert len(total.complex.components()) == 1  # connected triple cover
    assert homology(chain_complex(total.complex)).betti == (1, 1)
    rep = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert rep.verdict == "pass"
    assert rep.lhs == 2
    assert sorted((r["ind"], r["fiber_lefschetz"]) for r in rep.rows) \
        == [(1, 1), (1, 1)]
    rep2 = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert rep2.verdict == "pass"
    assert sorted(c for _, c in rep2.lhs) == [1, 1]
    rep3 = nielsen_additivity(pair, DEFAULT_DEPTH)
    assert rep3.lhs == rep3.rhs == 2


def diagonal_reflection_double_cover_pair():
    # reflection of the base across an axis through two edge midpoints:
    # the base map fixes no vertex, so every class representative lives
    # over a non-fixed point and the transport correction is essential
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphSelfMap, Transport)
    from fixtrace.catalog import two_point_complex
    from fixtrace.simplicial import SimplicialMap
    base = circle_base(4)
    fib = two_point_complex()
    ident = SimplicialMap(fib, fib, {"0": "0", "1": "1"})
    swap = SimplicialMap(fib, fib, {"0": "1", "1": "0"})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    transports["e3"] = Transport(swap, swap)
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    vertex_images = {"b0": "b1", "b1": "b0", "b2": "b3", "b3": "b2"}
    edge_words = {"e0": [("e0", -1)], "e1": [("e3", -1)],
                  "e2": [("e2", -1)], "e3": [("e1", -1)]}
    bmap = GraphSelfMap(base, vertex_images, edge_words)
    fiber_maps = {"b0": ident, "b1": ident, "b2": swap, "b3": swap}
    return BundleSelfMapPair(bundle, bmap, fiber_maps)


def test_diagonal_reflection_double_cover():
    pair = diagonal_reflection_double_cover_pair()
    r = base_reidemeister(pair, DEFAULT_DEPTH)
    assert sorted(c for _, c in r.items()) == [1, 1]
    values = []
    for cls, ind in r.items():
        values.append(lefschetz_number(class_composite(pair, cls)))
    assert sorted(values) == [0, 2]
    rep = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert rep.verdict == "pass" and rep.lhs == 2
    rep2 = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert rep2.verdict == "pass"
    assert sorted(c for _, c in rep2.lhs) == [1, 1]


def test_degree2_cover_refined_value():
    # squaring map on the connected double cover, over the degree-2 base
    # map; fibers map by constants.  No simplicial total map exists, but
    # the refined side is computable: one class, value L(constant) = 1,
    # index sign(1-2) = -1, so the weighted sum is -1 = L(z -> z^2).
    from fixtrace.bundles import BundleSelfMapPair
    from fixtrace.catalog import (double_cover_reflection_pair,
                                  degree_base_map, two_point_complex)
    from fixtrace.simplicial import SimplicialMap
    donor = double_cover_reflection_pair()
    bundle = donor.bundle
    base = bundle.base
    fib = two_point_complex()
    bmap = degree_base_map(base, 2)
    const0 = SimplicialMap(fib, fib, {"0": "0", "1": "0"})
    const1 = SimplicialMap(fib, fib, {"0": "1", "1": "1"})
    fiber_maps = {"b0": const0, "b1": const0, "b2": const1, "b3": const1}
    pair = BundleSelfMapPair(bundle, bmap, fiber_maps)
    r = base_reidemeister(pair, DEFAULT_DEPTH)
    items = r.items()
    assert len(items) == 1 and items[0][1] == -1
    (cls, ind), = items
    value = lefschetz_number(class_composite(pair, cls))
    assert value == 1
    assert ind * value == -1
    with pytest.raises(NotConstructibleError):
        total_map(pair)


def test_homotopy_inverse_transports():
    # designated inverses need only invert transports up to homology
    from fixtrace.bundles import DiscreteBundle, Transport
    from fixtrace.catalog import circle_base, circle_complex
    from fixtrace.simplicial import SimplicialMap, induced_chain_map
    from fixtrace.exactalg import homology_maps
    base = circle_base(4)
    fib = circle_complex(4)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    rot = SimplicialMap(fib, fib, {str(i): str((i + 1) % 4) for i in range(4)})
    transports = {e: Transport(ident, rot) for (e, _, _) in base.edges}
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    t = transport(bundle, [("e0", 1), ("e0", -1)], "b0")
    assert not _is_identity(t)  # pointwise a rotation
    assert homology_maps(induced_chain_map(t)) == homology_maps(
        induced_chain_map(ident))


def rotation_inverse_pair(fiber_map_name):
    # identity transports on a C4 fiber, but over e3 the designated inverse
    # is a rotation, which inverts the identity on homology only; the base
    # map has degree -1
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  Transport)
    from fixtrace.simplicial import SimplicialMap
    base = circle_base(4)
    fib = circle_complex(4)
    ident = SimplicialMap(fib, fib, {v: v for v in fib.vertices})
    rot = SimplicialMap(fib, fib, {str(i): str((i + 1) % 4) for i in range(4)})
    refl = SimplicialMap(fib, fib, {str(i): str((-i) % 4) for i in range(4)})
    transports = {e: Transport(ident, ident) for (e, _, _) in base.edges}
    transports["e3"] = Transport(ident, rot)
    bundle = DiscreteBundle(base, {v: fib for v in base.vertices}, transports)
    fmap = {"identity": ident, "reflection": refl}[fiber_map_name]
    return BundleSelfMapPair(bundle, degree_base_map(base, -1),
                             {v: fmap for v in base.vertices})


@pytest.mark.parametrize("fiber_map_name, value", [("reflection", 4),
                                                   ("identity", 0)])
def test_rotation_designated_inverse_passes(tmp_path, capsys, fiber_map_name,
                                            value):
    # The class fiber maps come from the lift tracks, which reverse e3 by
    # the transport's preimages, not by the rotation; L = L(B) L(F) = 2 * 2
    # for the reflection and 2 * 0 for the identity.
    from fixtrace.cli import EXIT_OK, main, serialize_pair
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(serialize_pair(
        rotation_inverse_pair(fiber_map_name))), encoding="utf-8")
    code = main(["bundle-verify", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert (code, rep["verdict"], rep["flags"]) == (EXIT_OK, "pass", [])
    assert rep["lhs"]["lefschetz"] == rep["rhs"]["lefschetz"] == value
    assert rep["lhs"]["nielsen"] == rep["rhs"]["nielsen"] == value


def test_edge_onto_a_loop_names_both_layer_counts():
    # an edge of two prisms cannot map simplicially onto a loop of three
    from fixtrace.bundles import BundleSelfMapPair, GraphBase, GraphSelfMap
    from fixtrace.catalog import point_complex, point_fiber_bundle
    from fixtrace.simplicial import SimplicialMap
    base = GraphBase(["b0", "b1"], [("e0", "b0", "b1"), ("a", "b1", "b1")],
                     ["e0"], "b0")
    pt = point_complex()
    bmap = GraphSelfMap(base, {"b0": "b1", "b1": "b1"},
                        {"e0": [("a", 1)], "a": [("a", 1)]})
    pair = BundleSelfMapPair(point_fiber_bundle(base), bmap,
                             {v: SimplicialMap(pt, pt, {"p": "p"})
                              for v in base.vertices})
    with pytest.raises(NotConstructibleError,
                       match=r"^edge e0 has 3 layers but the edge word it "
                             r"maps to has 4; no prism map realizes it$"):
        total_map(pair)


def test_track_fiber_map_not_simplicial_is_not_constructible():
    # The transport over e0 is the identity on vertices from a square with a
    # whisker 0-4 into the square with a filled triangle 0-1-4; its
    # designated inverse folds 4 onto 0.  The class fiber map follows the
    # lift tracks back through the transport's preimages, which send the
    # whisker to the edge 1-4, missing from the fiber over b0.
    from fixtrace.bundles import (BundleSelfMapPair, DiscreteBundle,
                                  GraphSelfMap, Transport)
    from fixtrace.simplicial import SimplicialMap, build_complex
    from tests.oracles import interval_base
    base = interval_base()
    whisker = build_complex([("0", "1"), ("1", "2"), ("2", "3"), ("0", "3"),
                             ("0", "4")], ["0", "1", "2", "3", "4"])
    filled = build_complex([("0", "1", "4"), ("1", "2"), ("2", "3"),
                            ("0", "3")], ["0", "1", "2", "3", "4"])
    t = SimplicialMap(whisker, filled, {v: v for v in whisker.vertices})
    fold = SimplicialMap(filled, whisker, {"0": "0", "1": "1", "2": "2",
                                           "3": "3", "4": "0"})
    bundle = DiscreteBundle(base, {"b0": whisker, "b1": filled},
                            {"e0": Transport(t, fold)})
    rot = {"0": "1", "1": "2", "2": "3", "3": "0"}
    pair = BundleSelfMapPair(
        bundle, GraphSelfMap(base, {"b0": "b1", "b1": "b1"}, {"e0": []}),
        {"b0": SimplicialMap(whisker, filled, {**rot, "4": "4"}),
         "b1": SimplicialMap(filled, filled, {**rot, "4": "1"})})
    assert verify_lefschetz_mult(pair, DEFAULT_DEPTH).verdict == "pass"
    with pytest.raises(NotConstructibleError,
                       match=r"^lift tracks give no simplicial fiber map: "):
        verify_reidemeister_mult(pair, DEFAULT_DEPTH)


def test_class_disjointness():
    # distinct base classes push to disjoint total-space class sets
    for pair in [double_cover_reflection_pair(),
                 trivial_product_pair("reflection", "reflection")]:
        rbar = base_reidemeister(pair, DEFAULT_DEPTH)
        supports = []
        for cls, ind in rbar.items():
            pushed = refined_reidemeister(pair, cls, DEFAULT_DEPTH)
            supports.append(set(pushed.terms.keys()))
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_orientable_collapse():
    # all transports homologically trivial: refined L constant over classes
    pair = trivial_product_pair("reflection", "reflection")
    values = {lefschetz_number(class_composite(pair, c))
              for c, _ in base_reidemeister(pair, DEFAULT_DEPTH).items()}
    assert values == {2}
    report = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert report.lhs == 2 * 2
