"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS line once its assertions have held, so a
`pytest -s` run shows the per-criterion verdicts.
"""

import json
import random

from fixtrace import catalog as cat
from fixtrace.bundles import (
    base_reidemeister,
    fiber_composite,
    nielsen_additivity,
    total_space,
    verify_lefschetz_mult,
    verify_reidemeister_mult,
)
from fixtrace.cli import EXIT_OK, main, serialize_pair
from fixtrace.exactalg import (
    IntMatrix,
    hopf_chain_trace,
    lefschetz_from_homology,
    smith_normal_form,
)
from fixtrace.grouprings import (
    DEFAULT_DEPTH,
    EQUAL,
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    GroupRingElement,
    augment,
    nielsen,
    shadow_equal,
    twisted_class,
)
from fixtrace.records import reidemeister_trace_geometric
from fixtrace.reidemeister import lift_self_map, reidemeister_trace_chain
from fixtrace.simplicial import (
    SimplicialError,
    SimplicialMap,
    chain_complex,
    induced_chain_map,
    lefschetz_number,
)
from tests import chain_models as cm
from tests.chain_models import twisted_hs_trace
from tests.oracles import (
    determinant,
    disjoint_union,
    from_rows,
    two_component_euler_fixtures,
)
from tests.tensor_products import tensor_chain_map


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# Random simplicial self-maps of catalog complexes
# ---------------------------------------------------------------------------

def random_circle_map(n, rng):
    k = cat.circle_complex(n)
    while True:
        start = rng.randrange(n)
        vals = [start]
        for _ in range(n - 1):
            vals.append((vals[-1] + rng.choice((-1, 0, 1))) % n)
        if (vals[0] - vals[-1]) % n in (0, 1, n - 1):
            return SimplicialMap(k, k, {str(i): str(vals[i])
                                        for i in range(n)})


def random_figure_eight_map(rng):
    k = cat.figure_eight_complex()
    while True:
        img = {v: rng.choice(k.vertices) for v in k.vertices}
        try:
            return SimplicialMap(k, k, img)
        except SimplicialError:
            continue


def torus7_maps():
    k = cat.torus7_complex()
    out = []
    for s in range(7):
        out.append(SimplicialMap(k, k, {str(i): str((i + s) % 7)
                                        for i in range(7)}))
        out.append(SimplicialMap(k, k, {str(i): str((s - i) % 7)
                                        for i in range(7)}))
        out.append(SimplicialMap(k, k, {str(i): str(s) for i in range(7)}))
    return out


def random_map_pool(rng):
    pool = []
    for n in (3, 4, 5, 6):
        pool.extend(random_circle_map(n, rng) for _ in range(15))
    pool.extend(random_figure_eight_map(rng) for _ in range(20))
    pool.extend(torus7_maps())
    return pool


# ---------------------------------------------------------------------------
# Criterion 1: Example fixture end to end through the CLI
# ---------------------------------------------------------------------------

def test_criterion_1_double_cover_end_to_end(tmp_path, capsys):
    doc = serialize_pair(cat.double_cover_reflection_pair())
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["bundle-verify", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    oracle = cat.double_cover_oracle()
    table = next(t for t in rep["tables"] if t["theorem"] == "lefschetz")
    cells = sorted((r["ind"], r["fiber_lefschetz"]) for r in table["rows"])
    assert cells == sorted((c["ind"], c["fiber_lefschetz"])
                           for c in oracle["per_class"])
    assert (rep["lhs"]["lefschetz"] == rep["rhs"]["lefschetz"]
            == sum(i * f for i, f in cells) == oracle["total_lefschetz"])
    report(1, "double cover: per-class table (1,0),(1,2); total L = 2")


# ---------------------------------------------------------------------------
# Criterion 2: Reidemeister factorization on the same fixture
# ---------------------------------------------------------------------------

def test_criterion_2_double_cover_reidemeister():
    pair = cat.double_cover_reflection_pair()
    rep = verify_reidemeister_mult(pair, DEFAULT_DEPTH)
    assert rep.verdict == "pass"
    assert sorted(rep.lhs) == sorted(rep.rhs) == [["[0]", 1], ["[1]", 1]]
    lifted = pair.total_lift
    group = lifted.complex.presentation.group
    # total fundamental group is Z with the inversion endomorphism
    assert group.rank == 1
    assert lifted.endo.images[0] == ((0, -1),)
    oracle = cat.double_cover_oracle()
    records = cm.materialize_records(oracle["records"], group)
    geo = reidemeister_trace_geometric(records, group, lifted.endo,
                                       DEFAULT_DEPTH)
    lhs = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert shadow_equal(lhs, geo, DEFAULT_DEPTH) == EQUAL
    report(2, "double cover: both sides [0]+[1] over (Z, -1); matches the "
              "conjugation fixed-point oracle")


# ---------------------------------------------------------------------------
# Criterion 3: circle family
# ---------------------------------------------------------------------------

def test_criterion_3_circle_family():
    for d in (-3, -2, -1, 0, 2, 3, 4):
        oracle = cm.circle_degree_oracle(d)
        count = abs(1 - d)
        sign = 1 if 1 - d > 0 else -1
        # chain route on the graph-base model
        pair = cat.circle_degree_pair(d)
        r_graph = base_reidemeister(pair, DEFAULT_DEPTH)
        assert len(r_graph.terms) == count
        assert all(c == sign for _, c in r_graph.items())
        assert augment(r_graph) == 1 - d == oracle["lefschetz"]
        # chain route on the one-cell circle model
        model = cm.circle_degree_chain_model(d)
        r_cw = reidemeister_trace_chain(model, DEFAULT_DEPTH)
        assert len(r_cw.terms) == count
        assert all(c == sign for _, c in r_cw.items())
        assert augment(r_cw) == 1 - d
        # analytic oracle, matched on both models
        z = model.complex.group
        geo_cw = reidemeister_trace_geometric(
            cm.materialize_records(oracle["records"], z), z, model.endo,
            DEFAULT_DEPTH)
        assert shadow_equal(r_cw, geo_cw, DEFAULT_DEPTH) == EQUAL
        base_group = pair.bundle.base.group
        geo_graph = reidemeister_trace_geometric(
            cm.materialize_records(oracle["records"], base_group),
            base_group, pair.base_lift().endo, DEFAULT_DEPTH)
        assert shadow_equal(r_graph, geo_graph, DEFAULT_DEPTH) == EQUAL
        assert nielsen(r_graph, DEFAULT_DEPTH) == oracle["nielsen"]
    report(3, "circle family d in {-3,-2,-1,0,2,3,4}: |1-d| classes of sign "
              "(1-d), matching the analytic oracle on both chain models")


# ---------------------------------------------------------------------------
# Criterion 4: torus family
# ---------------------------------------------------------------------------

def test_criterion_4_torus_family():
    rng = random.Random(20240)
    tested = 0
    while tested < 20:
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        det_ima = determinant(IntMatrix(
            2, 2, [1 - a[0][0], -a[0][1], -a[1][0], 1 - a[1][1]]))
        if det_ima == 0:
            continue
        model = cm.torus_linear_chain_model(a)
        r = reidemeister_trace_chain(model, DEFAULT_DEPTH)
        assert augment(r) == det_ima
        assert nielsen(r, DEFAULT_DEPTH) == abs(det_ima)
        sign = 1 if det_ima > 0 else -1
        assert all(c == sign for _, c in r.items())
        oracle = cm.torus_lattice_oracle(a)
        assert len(oracle["records"]) == abs(det_ima)
        z2 = model.complex.group
        geo = reidemeister_trace_geometric(oracle["records"], z2, model.endo,
                                           DEFAULT_DEPTH)
        assert shadow_equal(r, geo, DEFAULT_DEPTH) == EQUAL
        tested += 1
    report(4, "20 torus matrices: L = det(I-A), N = |det(I-A)|, all "
              "coefficients sign(det(I-A)), matching lattice enumeration")


# ---------------------------------------------------------------------------
# Criterion 5: Hopf trace property
# ---------------------------------------------------------------------------

def test_criterion_5_hopf_trace():
    rng = random.Random(5150)
    pool = random_map_pool(rng)
    assert len(pool) >= 100
    for f in pool:
        m = induced_chain_map(f)
        assert hopf_chain_trace(m) == lefschetz_from_homology(m)
    report(5, f"chain trace equals homology trace on {len(pool)} random "
              "self-maps")


# ---------------------------------------------------------------------------
# Criterion 6: multiplicativity under tensor product
# ---------------------------------------------------------------------------

def test_criterion_6_tensor_multiplicativity():
    rng = random.Random(6017)
    maps = []
    for n in (3, 4, 5):
        maps.extend(random_circle_map(n, rng) for _ in range(5))
    maps.extend(random_figure_eight_map(rng) for _ in range(5))
    chain_maps = [induced_chain_map(f) for f in maps]
    pairs = [(rng.choice(chain_maps), rng.choice(chain_maps))
             for _ in range(50)]
    for m1, m2 in pairs:
        t = tensor_chain_map(m1, m2)
        assert (lefschetz_from_homology(t)
                == lefschetz_from_homology(m1) * lefschetz_from_homology(m2))
    report(6, "L(f x g) = L(f) L(g) on 50 random pairs")


# ---------------------------------------------------------------------------
# Criterion 7: augmentation identity
# ---------------------------------------------------------------------------

def test_criterion_7_augmentation_identity():
    checked = 0
    # simplicial fixtures with recognized fundamental group
    fixtures = []
    for n in (4, 6):
        k = cat.circle_complex(n)
        fixtures.append((k, {str(i): str((-i) % n) for i in range(n)}))
        fixtures.append((k, {str(i): str((i + 1) % n) for i in range(n)}))
        fixtures.append((k, {str(i): "0" for i in range(n)}))
    kt = cat.torus7_complex()
    for s in (0, 1):
        fixtures.append((kt, {str(i): str((i + s) % 7) for i in range(7)}))
    fixtures.append((kt, {str(i): str((-i) % 7) for i in range(7)}))
    k8 = cat.figure_eight_complex()
    fixtures.append((k8, {v: v for v in k8.vertices}))
    fixtures.append((k8, {"0": "0", "1": "3", "2": "4", "3": "1", "4": "2"}))
    for k, imgs in fixtures:
        f = SimplicialMap(k, k, imgs)
        lifted = lift_self_map(k, f)
        assert (augment(reidemeister_trace_chain(lifted, DEFAULT_DEPTH))
                == lefschetz_number(f))
        checked += 1
    # circle and torus chain models
    for d in (-3, -2, -1, 0, 2, 3, 4):
        model = cm.circle_degree_chain_model(d)
        assert augment(reidemeister_trace_chain(model, DEFAULT_DEPTH)) == 1 - d
        checked += 1
    for a in ([[2, 1], [1, 1]], [[-1, 0], [0, -1]], [[2, 0], [0, 2]]):
        model = cm.torus_linear_chain_model(a)
        det_ima = determinant(IntMatrix(
            2, 2, [1 - a[0][0], -a[0][1], -a[1][0], 1 - a[1][1]]))
        assert (augment(reidemeister_trace_chain(model, DEFAULT_DEPTH))
                == det_ima)
        checked += 1
    # bundle total maps
    for pair in [cat.double_cover_reflection_pair(),
                 cat.trivial_product_pair("reflection", "reflection"),
                 cat.trivial_product_pair("constant", "identity"),
                 cat.fixed_point_free_rotation_pair()]:
        _, f = pair.total
        r = reidemeister_trace_chain(pair.total_lift, DEFAULT_DEPTH)
        assert augment(r) == lefschetz_number(f)
        # the homology route stays checked on total spaces
        assert (lefschetz_from_homology(induced_chain_map(f))
                == verify_lefschetz_mult(pair, DEFAULT_DEPTH).lhs)
        checked += 1
    report(7, f"augment(R(f)) = L(f) on {checked} fixtures")


# ---------------------------------------------------------------------------
# Criterion 8: shadow cyclicity
# ---------------------------------------------------------------------------

def _random_ring_matrix(group, rng, n, elements):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = [(rng.choice(elements), rng.randint(-2, 2))
                     for _ in range(rng.randrange(3))]
            row.append(GroupRingElement(group, terms))
        rows.append(row)
    return from_rows(group, rows)


def test_criterion_8_shadow_cyclicity():
    rng = random.Random(80)
    z1 = FreeAbelianGroup(1)
    z2 = FreeAbelianGroup(2)
    f1 = FreeGroup(1)
    f2 = FreeGroup(2)
    f3 = FreeGroup(3)
    a, b, c = ((0, 1),), ((1, 1),), ((2, 1),)
    cases = [
        (z1, GroupEndomorphism(z1, [(-1,)]), [(0,), (1,), (-2,), (3,)]),
        (z1, GroupEndomorphism(z1, [(2,)]), [(0,), (1,), (-1,)]),
        (z2, GroupEndomorphism(z2, [(2, 1), (1, 1)]),
         [(0, 0), (1, 0), (0, 1), (-1, 1)]),
        (z2, GroupEndomorphism(z2, [(0, 1), (1, 0)]),
         [(0, 0), (1, 0), (2, -1)]),
        # free groups whose classes are certain: F_1, and F_2 and F_3
        # under ordinary conjugacy
        (f1, GroupEndomorphism(f1, [f1.inv(a)]), [(), a, a + a, f1.inv(a)]),
        (f1, GroupEndomorphism(f1, [a + a + a]), [(), a, f1.inv(a)]),
        (f2, GroupEndomorphism(f2, f2.generators()),
         [(), a, b, a + b, b + f2.inv(a)]),
        (f3, GroupEndomorphism(f3, f3.generators()), [a, b + b, c, a + b + c]),
    ]
    count = 0
    for group, endo, elements in cases:
        for _ in range(13):
            n = rng.choice([1, 2])
            a = _random_ring_matrix(group, rng, n, elements)
            b = _random_ring_matrix(group, rng, n, elements)
            lhs = twisted_hs_trace(a * b, endo)
            rhs = twisted_hs_trace(b * a.apply(endo), endo)
            assert shadow_equal(lhs, rhs, DEFAULT_DEPTH) == EQUAL
            count += 1
    assert count >= 100
    report(8, f"tr(AB) = tr(B phi(A)) on {count} random group-ring pairs")


# ---------------------------------------------------------------------------
# Criterion 9: Euler-characteristic multiplicativity
# ---------------------------------------------------------------------------

def test_criterion_9_euler_multiplicativity():
    pair = cat.trivial_product_pair("identity", "identity")
    rep = verify_lefschetz_mult(pair, DEFAULT_DEPTH)
    assert rep.verdict == "pass"
    total = total_space(pair.bundle)
    chi_e = total.complex.euler_characteristic()
    chi_b = 0  # circle base
    chi_f = cat.circle_complex(3).euler_characteristic()
    assert rep.lhs == chi_e == chi_b * chi_f == 0
    # two-component situation: chi(E) = sum over components of
    # chi(component) * chi(fiber over it)
    fixtures = two_component_euler_fixtures()
    totals = []
    expected_sum = 0
    for piece, expected in fixtures:
        rep = verify_lefschetz_mult(piece, DEFAULT_DEPTH)
        assert rep.verdict == "pass"
        assert rep.lhs == expected
        totals.append(total_space(piece.bundle).complex)
        expected_sum += expected
    union = disjoint_union(totals[0], totals[1])
    assert union.euler_characteristic() == expected_sum == 2
    report(9, "chi(E) = sum of chi(component) * chi(fiber) on the product "
              "and the two-component fixture")


# ---------------------------------------------------------------------------
# Criterion 10: Nielsen additivity
# ---------------------------------------------------------------------------

def test_criterion_10_nielsen_additivity():
    decisive = [
        ("double_cover", cat.double_cover_reflection_pair()),
        ("product r x r", cat.trivial_product_pair("reflection", "reflection")),
        ("product r x c", cat.trivial_product_pair("reflection", "constant")),
        ("product c x r", cat.trivial_product_pair("constant", "reflection")),
        ("product c x c", cat.trivial_product_pair("constant", "constant")),
        ("product c x i", cat.trivial_product_pair("constant", "identity")),
        ("fixed point free", cat.fixed_point_free_rotation_pair()),
    ]
    for name, pair in decisive:
        rep = nielsen_additivity(pair, DEFAULT_DEPTH)
        assert rep.lhs == rep.rhs, name
    # the fixed-point-free fixture is the vacuous case
    rep = nielsen_additivity(cat.fixed_point_free_rotation_pair(),
                             DEFAULT_DEPTH)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.rows == []
    report(10, f"N(f) equals the per-class sum on {len(decisive)} decisive "
               "fixtures, including the vacuous fixed-point-free case")


# ---------------------------------------------------------------------------
# Criterion 11: property suites
# ---------------------------------------------------------------------------

def test_criterion_11a_canonicalization_stability():
    rng = random.Random(111)
    cases = []
    z2 = FreeAbelianGroup(2)
    cases.append((z2, GroupEndomorphism(z2, [(2, 1), (1, 1)]), (3, -4)))
    cases.append((z2, GroupEndomorphism(z2, [(-1, 0), (0, -1)]), (5, 2)))
    z1 = FreeAbelianGroup(1)
    cases.append((z1, GroupEndomorphism(z1, [(-1,)]), (7,)))
    f1 = FreeGroup(1)
    cases.append((f1, GroupEndomorphism(f1, [((0, -1),)]), ((0, 1),) * 3))
    f2 = FreeGroup(2)
    cases.append((f2, GroupEndomorphism(f2, f2.generators()),
                  ((0, 1), (1, 1), (0, -1))))
    for group, endo, base in cases:
        want = twisted_class(group, endo, base, DEFAULT_DEPTH).key
        for _ in range(50):
            if group.kind == "free_abelian":
                h = tuple(rng.randint(-5, 5) for _ in range(group.rank))
            else:
                h = group.element((rng.randrange(group.rank),
                                   rng.choice((1, -1)))
                                  for _ in range(rng.randrange(4)))
            moved = group.mul(group.mul(endo.apply(h), base), group.inv(h))
            assert twisted_class(group, endo, moved, DEFAULT_DEPTH).key == want
    report("11a", f"canonical representative stable under 50 random orbit "
                  f"moves in {len(cases)} group cases")


def test_criterion_11b_representative_independence():
    pair = cat.double_cover_reflection_pair()
    base = pair.bundle.base
    alphas = [[], [("e0", 1)], [("e0", 1), ("e1", 1)], [("e3", -1)],
              [("e0", 1), ("e1", 1), ("e2", 1)], [("e0", 1), ("e0", -1)],
              [("e3", -1), ("e2", -1)],
              [("e0", 1), ("e1", 1), ("e2", 1), ("e3", 1)],
              [("e3", -1), ("e3", 1)], [("e0", 1), ("e1", 1), ("e1", -1)]]
    assert len(alphas) == 10
    for c, _ in base_reidemeister(pair, DEFAULT_DEPTH).items():
        want = lefschetz_number(fiber_composite(pair, base.basepoint,
                                                pair.class_path(c)))
        for alpha in alphas:
            end = base.step_endpoints(alpha[-1])[1] if alpha else "b0"
            gamma2 = ([(e, -s) for (e, s) in reversed(alpha)]
                      + pair.class_path(c) + pair.base_map.apply_word(alpha))
            base.validate_word(gamma2, end, pair.base_map.vertex_images[end])
            got = lefschetz_number(fiber_composite(pair, end, gamma2))
            assert got == want
    report("11b", "refined fiberwise Lefschetz values agree on 10 "
                  "representatives per class")


def test_criterion_11c_snf_and_boundary_invariants():
    rng = random.Random(113)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix(n, m, [rng.randint(-10, 10) for _ in range(n * m)])
        sf = smith_normal_form(a)
        assert sf.U * a * sf.V == sf.S
        assert abs(determinant(sf.U)) == 1
        assert abs(determinant(sf.V)) == 1
        diag = sf.diagonal()
        nonzero = [d for d in diag if d != 0]
        assert all(d >= 0 for d in diag)
        assert diag[:len(nonzero)] == nonzero
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
    complexes = [cat.point_complex(), cat.circle_complex(3),
                 cat.circle_complex(6), cat.figure_eight_complex(),
                 cat.torus7_complex()]
    from fixtrace.simplicial import product_complex
    complexes.append(product_complex(cat.circle_complex(3),
                                     cat.circle_complex(3)))
    for pair_fix in [cat.double_cover_reflection_pair(),
                     cat.trivial_product_pair("identity", "identity")]:
        complexes.append(total_space(pair_fix.bundle).complex)
    for k in complexes:
        assert chain_complex(k).boundary_squares_to_zero()
    report("11c", f"SNF invariants on 60 random matrices; dd = 0 on "
                  f"{len(complexes)} fixture complexes")
