import pytest

from fixtrace.bundles import (
    BundleError,
    NotConstructibleError,
    base_reidemeister,
    base_twisted_classes,
    class_of_element,
    fiber_composite_for_class,
    nielsen_additivity,
    refined_lefschetz,
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
    two_component_euler_fixtures,
)
from fixtrace.exactalg import homology
from fixtrace.grouprings import EQUAL, augment, nielsen, shadow_equal
from fixtrace.reidemeister import reidemeister_trace_geometric
from fixtrace.simplicial import chain_complex, disjoint_union, lefschetz_number


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_empty_word_identity():
    pair = double_cover_reflection_pair()
    t = transport(pair.bundle, [], "b0")
    assert t.is_identity()


def test_transport_full_loop_is_swap():
    pair = double_cover_reflection_pair()
    loop = [("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)]
    t = transport(pair.bundle, loop, "b0")
    assert t.vertex_images == {"0": "1", "1": "0"}


def test_transport_roundtrip_homology_identity():
    pair = trivial_product_pair("identity", "identity")
    word = [("e0", 1), ("e0", -1)]
    t = transport(pair.bundle, word, "b0")
    assert t.is_identity()


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

def test_base_classes_reflection_two():
    pair = double_cover_reflection_pair()
    classes = base_twisted_classes(pair)
    assert len(classes) == 2
    assert all(c.complete for c in classes)


def test_base_classes_identity_truncated():
    pair = trivial_product_pair("identity", "identity")
    classes = base_twisted_classes(pair, depth=3)
    assert len(classes) == 7
    assert not any(c.complete for c in classes)


def test_base_classes_degree2_single():
    pair = circle_degree_pair(2)
    classes = base_twisted_classes(pair)
    assert len(classes) == 1
    assert classes[0].complete


def test_base_reidemeister_reflection():
    pair = double_cover_reflection_pair()
    r = base_reidemeister(pair)
    assert augment(r) == 2
    assert nielsen(r) == 2
    assert sorted(c for _, c in r.items()) == [1, 1]


def test_base_reidemeister_degree_family():
    for d in (-3, -2, -1, 0, 2, 3, 4):
        pair = circle_degree_pair(d)
        r = base_reidemeister(pair)
        assert augment(r) == 1 - d
        count = abs(1 - d)
        assert len(r.terms) == count
        sign = 1 if 1 - d > 0 else -1
        assert all(c == sign for _, c in r.items())


def test_base_reidemeister_rotation_empty():
    pair = fixed_point_free_rotation_pair()
    r = base_reidemeister(pair)
    assert r.is_zero()


# ---------------------------------------------------------------------------
# fiber composites and refined L
# ---------------------------------------------------------------------------

def test_fiber_composites_example():
    pair = double_cover_reflection_pair()
    r = base_reidemeister(pair)
    values = {}
    for cls, ind in r.items():
        bpc = class_of_element(pair, cls.rep)
        values[cls.key] = lefschetz_number(fiber_composite_for_class(pair, bpc))
    assert sorted(values.values()) == [0, 2]


def test_refined_lefschetz_table():
    pair = double_cover_reflection_pair()
    classes = base_twisted_classes(pair)
    table = refined_lefschetz(pair, classes)
    assert sorted(v for _, v in table) == [0, 2]


def test_refined_lefschetz_representative_independent():
    pair = double_cover_reflection_pair()
    classes = base_twisted_classes(pair)
    base = pair.bundle.base
    for c in classes:
        want = lefschetz_number(fiber_composite_for_class(pair, c))
        # alternate representatives (b', alpha^-1 . gamma . fbar(alpha))
        alphas = [[], [("e0", 1)], [("e0", 1), ("e1", 1)],
                  [("e3", -1)], [("e0", 1), ("e1", 1), ("e2", 1)],
                  [("e0", 1), ("e0", -1)], [("e3", -1), ("e2", -1)],
                  [("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)],
                  [("e3", -1), ("e3", 1)],
                  [("e0", 1), ("e1", 1), ("e1", -1)]]
        for alpha in alphas:
            end = base.validate_word(alpha, "b0")
            gamma2 = ([(e, -s) for (e, s) in reversed(alpha)]
                      + list(c.gamma) + pair.base_map.apply_word(alpha))
            from fixtrace.bundles import fiber_composite
            got = lefschetz_number(fiber_composite(pair, end, gamma2))
            assert got == want


def test_trivial_bundle_composite_is_fiber_map():
    pair = trivial_product_pair("identity", "reflection")
    classes = base_twisted_classes(pair, depth=1)
    for c in classes:
        f = fiber_composite_for_class(pair, c)
        assert lefschetz_number(f) == 2


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
    assert f.is_identity()


def test_total_map_supplied_double_cover():
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
    k = total.complex
    for a, b in zip(path, path[1:]):
        i, j = k.index[a], k.index[b]
        assert k.has_simplex((min(i, j), max(i, j)))


# ---------------------------------------------------------------------------
# Theorem verifications
# ---------------------------------------------------------------------------

def test_verify_lefschetz_example():
    pair = double_cover_reflection_pair()
    report = verify_lefschetz_mult(pair)
    assert report.passed
    assert report.lhs == 2
    assert report.rhs == 2
    assert sorted((row["ind"], row["fiber_lefschetz"]) for row in report.rows) \
        == [(1, 0), (1, 2)]


def test_verify_lefschetz_trivial_products():
    from fixtrace.catalog import BASE_LEFSCHETZ, FIBER_LEFSCHETZ
    for bname in ("identity", "reflection", "constant", "rotation"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            report = verify_lefschetz_mult(pair)
            assert report.passed, (bname, fname, report)
            assert report.lhs == BASE_LEFSCHETZ[bname] * FIBER_LEFSCHETZ[fname]


def test_verify_lefschetz_identity_pair_euler():
    pair = trivial_product_pair("identity", "identity")
    report = verify_lefschetz_mult(pair)
    assert report.passed
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
    report = verify_reidemeister_mult(pair)
    assert report.passed
    assert report.lhs == report.rhs
    assert sorted(c for _, c in report.lhs) == [1, 1]


def test_verify_reidemeister_example_against_oracle():
    from fixtrace.catalog import materialize_records
    pair = double_cover_reflection_pair()
    lifted = pair.total_lift
    group = lifted.presentation.group
    lhs = lifted.trace()
    oracle = double_cover_oracle()
    records = materialize_records(oracle["records"], group)
    geo = reidemeister_trace_geometric(records, group, lifted.endo)
    assert shadow_equal(lhs, geo) == EQUAL


def test_verify_reidemeister_trivial_products():
    for bname in ("identity", "reflection", "constant", "rotation"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            report = verify_reidemeister_mult(pair)
            assert report.passed, (bname, fname, report.flags)


def test_verify_reidemeister_fixed_point_free():
    pair = fixed_point_free_rotation_pair()
    report = verify_reidemeister_mult(pair)
    assert report.passed
    assert report.lhs == []
    assert report.rhs == []


def test_reflection_product_lattice_oracle():
    # base reflection x fiber reflection is the torus map -I:
    # N = det(I-(-I)) = 4 classes, all coefficients +1
    pair = trivial_product_pair("reflection", "reflection")
    r = pair.total_lift.trace()
    assert augment(r) == 4
    assert nielsen(r) == 4
    assert all(c == 1 for _, c in r.items())


def test_nielsen_additivity_example():
    pair = double_cover_reflection_pair()
    n_total, total, table = nielsen_additivity(pair)
    assert n_total == 2
    assert total == 2


def test_nielsen_additivity_fixed_point_free():
    pair = fixed_point_free_rotation_pair()
    n_total, total, table = nielsen_additivity(pair)
    assert n_total == 0
    assert total == 0
    assert table == []


def test_nielsen_additivity_products():
    for bname in ("reflection", "constant"):
        for fname in ("identity", "reflection", "constant"):
            pair = trivial_product_pair(bname, fname)
            n_total, total, _ = nielsen_additivity(pair)
            assert n_total == total, (bname, fname)


def test_all_catalog_bundle_pairs_verify():
    # a Fail from either verifier on any catalog fixture is build-breaking
    from fixtrace.catalog import CATALOG
    for name, entry in sorted(CATALOG.items()):
        if entry.kind != "bundle_pair":
            continue
        pair = entry.build(**entry.default_params)
        try:
            rep = verify_lefschetz_mult(pair)
            assert rep.passed, (name, rep.flags)
            rep2 = verify_reidemeister_mult(pair)
            assert rep2.passed, (name, rep2.flags)
        except NotConstructibleError:
            # degree-two dynamics need subdivision; the refined side still
            # computes and matches the analytic value
            assert name == "circle_degree_map"
            r = base_reidemeister(pair)
            classes = base_twisted_classes(pair)
            table = refined_lefschetz(pair, classes)
            rhs = sum(ind * val
                      for (cls, ind), (_, val) in zip(r.items(), table))
            assert rhs == -1  # L(z -> z^2)


def test_two_component_euler():
    fixtures = two_component_euler_fixtures()
    total_chi = 0
    complexes = []
    for pair, expected in fixtures:
        report = verify_lefschetz_mult(pair)
        assert report.passed
        assert report.lhs == expected
        total = total_space(pair.bundle)
        complexes.append(total.complex)
        total_chi += expected
    union = disjoint_union(complexes[0], complexes[1])
    assert union.euler_characteristic() == total_chi


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
    report = verify_lefschetz_mult(pair)
    assert report.passed
    assert report.lhs == 0


def test_klein_bottle_reidemeister_unsupported():
    from fixtrace.reidemeister import UnsupportedComplexError
    pair = klein_bundle_pair()
    with pytest.raises(UnsupportedComplexError):
        verify_reidemeister_mult(pair)


def test_klein_bottle_cli_both_prints_lefschetz_table(tmp_path, capsys):
    import json
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
    report = verify_reidemeister_mult(pair)
    assert report.passed
    assert sorted(c for _, c in report.lhs) == [1, 1, 1, 1]


def test_torus_linear_larger_entries():
    from fixtrace.catalog import torus_lattice_oracle, torus_linear_chain_model
    from fixtrace.grouprings import EQUAL, augment, nielsen, shadow_equal
    from fixtrace.reidemeister import (reidemeister_trace_chain,
                                       reidemeister_trace_geometric)
    for a in ([[3, 5], [1, 2]], [[0, -3], [4, 1]], [[-4, 1], [2, -3]]):
        model = torus_linear_chain_model(a)
        r = reidemeister_trace_chain(model)
        oracle = torus_lattice_oracle(a)
        assert augment(r) == oracle["lefschetz"]
        assert nielsen(r) == oracle["nielsen"]
        geo = reidemeister_trace_geometric(oracle["records"],
                                           model.complex.group, model.endo)
        assert shadow_equal(r, geo) == EQUAL


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
    rep = verify_lefschetz_mult(pair)
    assert rep.passed
    assert rep.lhs == 2
    assert sorted((r["ind"], r["fiber_lefschetz"]) for r in rep.rows) \
        == [(1, 1), (1, 1)]
    rep2 = verify_reidemeister_mult(pair)
    assert rep2.passed
    assert sorted(c for _, c in rep2.lhs) == [1, 1]
    n_total, n_sum, _ = nielsen_additivity(pair)
    assert n_total == n_sum == 2


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
    r = base_reidemeister(pair)
    assert sorted(c for _, c in r.items()) == [1, 1]
    values = []
    for cls, ind in r.items():
        bpc = class_of_element(pair, cls.rep)
        values.append(lefschetz_number(fiber_composite_for_class(pair, bpc)))
    assert sorted(values) == [0, 2]
    rep = verify_lefschetz_mult(pair)
    assert rep.passed and rep.lhs == 2
    rep2 = verify_reidemeister_mult(pair)
    assert rep2.passed
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
    r = base_reidemeister(pair)
    items = r.items()
    assert len(items) == 1 and items[0][1] == -1
    classes = base_twisted_classes(pair)
    assert len(classes) == 1
    table = refined_lefschetz(pair, classes)
    assert table[0][1] == 1
    assert sum(ind * val for (_, ind), (_, val)
               in zip(items, table)) == -1
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
    assert not t.is_identity()  # pointwise a rotation
    assert homology_maps(induced_chain_map(t)) == homology_maps(
        induced_chain_map(ident))


def test_class_disjointness():
    # distinct base classes push to disjoint total-space class sets
    for pair in [double_cover_reflection_pair(),
                 trivial_product_pair("reflection", "reflection")]:
        rbar = base_reidemeister(pair)
        supports = []
        for cls, ind in rbar.items():
            bpc = class_of_element(pair, cls.rep)
            pushed = refined_reidemeister(pair, bpc)
            supports.append(set(pushed.terms.keys()))
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])


def test_orientable_collapse():
    # all transports homologically trivial: refined L constant over classes
    pair = trivial_product_pair("reflection", "reflection")
    classes = base_twisted_classes(pair)
    values = {lefschetz_number(fiber_composite_for_class(pair, c))
              for c in classes}
    assert values == {2}
    report = verify_lefschetz_mult(pair)
    assert report.lhs == 2 * 2
