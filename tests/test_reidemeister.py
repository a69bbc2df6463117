import pytest

from fixtrace.exactalg import homology
from fixtrace.grouprings import (
    EQUAL,
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    GroupRingElement,
    GroupRingMatrix,
    augment,
    nielsen,
    reduce_word,
    shadow_equal,
    twisted_class,
)
from fixtrace.reidemeister import (
    EquivariantChainComplex,
    FixedPointRecord,
    LiftError,
    TwistedChainMap,
    UnsupportedComplexError,
    fox_derivative,
    lift_map,
    lift_on_cover,
    lift_self_map,
    lift_to_universal_cover,
    reidemeister_trace_chain,
    reidemeister_trace_geometric,
)
from fixtrace.simplicial import (
    SimplicialMap,
    build_complex,
    identity_map,
    lefschetz_number,
    pi1_presentation,
)


def circle(n=3):
    return build_complex([(i, (i + 1) % n) for i in range(n)],
                         vertices=list(range(n)))


def torus7():
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return build_complex(faces, vertices=list(range(7)))


# ---------------------------------------------------------------------------
# Fox derivatives
# ---------------------------------------------------------------------------

def test_fox_derivative_commutator():
    f2 = FreeGroup(2)
    a, b = ((0, 1),), ((1, 1),)
    comm = ((0, 1), (1, 1), (0, -1), (1, -1))
    # d/da (a b a^-1 b^-1) = 1 - a b a^-1,  d/db = a - a b a^-1 b^-1
    assert fox_derivative(comm, reduce_word, f2) == {
        0: GroupRingElement(f2, [((), 1), (comm[:3], -1)]),
        1: GroupRingElement(f2, [(a, 1), (comm, -1)]),
    }
    assert fox_derivative(b, reduce_word, f2) == {
        1: GroupRingElement.of(f2, ())}


def test_fox_derivative_omits_cancelled_generators():
    f2 = FreeGroup(2)
    assert fox_derivative(((0, 1), (0, -1)), reduce_word, f2) == {}
    # x y x^-1: d/dx = 1 - x y x^-1 stays, d/dy = x
    word = ((0, 1), (1, 1), (0, -1))
    assert fox_derivative(word, reduce_word, f2) == {
        0: GroupRingElement(f2, [((), 1), (word, -1)]),
        1: GroupRingElement.of(f2, ((0, 1),)),
    }


def test_lift_takes_one_fox_pass_per_word(monkeypatch):
    from fixtrace import catalog as cat
    from fixtrace import reidemeister
    from fixtrace.simplicial import product_complex
    k = product_complex(cat.circle_complex(6), cat.circle_complex(6))
    words = []
    real = reidemeister.fox_derivative

    def counting(word, *args, **kwargs):
        words.append(word)
        return real(word, *args, **kwargs)

    monkeypatch.setattr(reidemeister, "fox_derivative", counting)
    lifted = lift_self_map(k, identity_map(k))
    n_gens = len(lifted.complex.presentation.generators)
    # one call per 2-simplex boundary word and one per generator loop image
    assert len(words) == len(k.n_simplices(2)) + n_gens == 72 + n_gens


# ---------------------------------------------------------------------------
# lift_to_universal_cover
# ---------------------------------------------------------------------------

def test_lift_circle_ranks_and_boundary():
    k = circle(3)
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    assert cover.ranks == (1, 1)
    b1 = cover.boundary(1)
    t = p.element_of_word(((0, 1),))
    expected = GroupRingElement(p.group, [(t, 1), (p.group.identity(), -1)])
    assert b1[0, 0] == expected


def test_lift_point():
    k = build_complex([(0,)])
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    assert cover.ranks == (1,)
    assert cover.top_degree == 0


def test_lift_torus7_boundaries():
    k = torus7()
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    assert cover.ranks == (1, 15, 14)
    # dd = 0 checked at construction; augmentation has the torus homology
    aug = cover.augmented_complex()
    h = homology(aug)
    assert h.betti == (1, 2, 1)
    assert all(t == () for t in h.torsion)


def test_lift_dim3_unsupported():
    k = build_complex([tuple(range(4))])  # solid 3-simplex
    p = pi1_presentation(k, 0)
    with pytest.raises(UnsupportedComplexError):
        lift_to_universal_cover(p)


def test_lift_unrecognized_group_unsupported():
    # projective plane: pi1 = Z/2 is not recognized by the Tietze pass
    faces = [(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5)]
    k = build_complex(faces)
    p = pi1_presentation(k, 0)
    with pytest.raises(UnsupportedComplexError):
        lift_to_universal_cover(p)


# ---------------------------------------------------------------------------
# lift_map and chain traces
# ---------------------------------------------------------------------------

def test_lift_identity_components():
    k = circle(3)
    lifted = lift_self_map(k, identity_map(k))
    f1 = lifted.component(1)
    e = GroupRingElement.of(lifted.complex.presentation.group,
                            lifted.complex.presentation.group.identity())
    assert f1[0, 0] == e


def test_lift_reflection_component():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 2, 2: 1})
    lifted = lift_self_map(k, f)
    p = lifted.complex.presentation
    # degree-1 component is minus a single power of the generator
    items = lifted.component(1)[0, 0].items()
    assert len(items) == 1
    g, c = items[0]
    assert c == -1
    assert sum(e for _, e in g) in (0, 1, -1) if isinstance(g, tuple) else True


def test_reflection_trace_two_classes():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 2, 2: 1})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted)
    assert augment(r) == 2
    assert nielsen(r) == 2
    assert sorted(c for _, c in r.items()) == [1, 1]


def test_rotation_trace_zero():
    k = circle(4)
    f = SimplicialMap(k, k, {v: (v + 1) % 4 for v in k.vertices})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted)
    assert r.is_zero()
    assert lefschetz_number(f) == 0


def test_constant_map_trace():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 0, 2: 0})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted)
    assert augment(r) == 1
    assert nielsen(r) == 1


def test_torus_identity_trace_vanishes():
    k = torus7()
    lifted = lift_self_map(k, identity_map(k))
    r = reidemeister_trace_chain(lifted)
    assert augment(r) == 0
    assert r.is_zero()


def test_torus_rotation_trace_vanishes():
    k = torus7()
    f = SimplicialMap(k, k, {v: (v + 1) % 7 for v in k.vertices})
    lifted = lift_self_map(k, f)
    assert reidemeister_trace_chain(lifted).is_zero()


def test_torus_involution_augmentation():
    k = torus7()
    f = SimplicialMap(k, k, {v: (-v) % 7 for v in k.vertices})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted)
    assert augment(r) == lefschetz_number(f)


def test_augmentation_identity_many_maps():
    k3 = circle(3)
    k5 = circle(5)
    cases = [
        (k3, {0: 0, 1: 2, 2: 1}),
        (k3, {0: 0, 1: 0, 2: 0}),
        (k3, {0: 1, 1: 2, 2: 0}),
        (k5, {v: (-v) % 5 for v in range(5)}),
        (k5, {v: 0 for v in range(5)}),
    ]
    for k, imgs in cases:
        f = SimplicialMap(k, k, imgs)
        lifted = lift_self_map(k, f)
        assert augment(reidemeister_trace_chain(lifted)) == lefschetz_number(f)


def test_trace_uses_the_requested_depth():
    from fixtrace.catalog import figure_eight_complex
    from fixtrace.grouprings import DEFAULT_DEPTH
    k = figure_eight_complex()
    f = SimplicialMap(k, k, {"0": "0", "1": "3", "2": "4", "3": "1", "4": "2"})
    lifted = lift_self_map(k, f)
    shallow = reidemeister_trace_chain(lifted, 3)
    assert shallow.items()
    assert all(cls.certainty == ("heuristic", 3) for cls, _ in shallow.items())
    assert all(cls.certainty == ("heuristic", DEFAULT_DEPTH)
               for cls, _ in reidemeister_trace_chain(lifted).items())


def test_lift_map_rejects_mismatched_complex():
    k = circle(3)
    k2 = circle(4)
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    f = identity_map(k2)
    with pytest.raises(LiftError):
        lift_map(f, [], cover)


def _changed_at_one_entry(m, ij=None):
    """A copy of the group-ring matrix ``m`` with 1 added to the entry at
    ``ij``, by default its least nonzero index."""
    group = m.group
    ij = min(m.entries) if ij is None else ij
    entries = dict(m.entries)
    entries[ij] = entries[ij] + GroupRingElement.of(group, group.identity())
    return GroupRingMatrix(group, m.rows, m.cols, entries)


@pytest.mark.parametrize("complex_name, degree", [
    ("torus7", 1), ("torus7", 2), ("figure_eight", 1)])
def test_twisted_chain_map_rejects_a_changed_entry(complex_name, degree):
    from fixtrace.catalog import figure_eight_complex
    if complex_name == "torus7":
        k = torus7()
        f = identity_map(k)
    else:
        k = figure_eight_complex()
        f = SimplicialMap(k, k, {"0": "0", "1": "3", "2": "4", "3": "1",
                                 "4": "2"})
    cm = lift_self_map(k, f)
    comps = list(cm.components)
    TwistedChainMap(cm.complex, cm.endo, comps)  # the lift itself commutes
    comps[degree] = _changed_at_one_entry(comps[degree])
    with pytest.raises(LiftError, match=(
            f"twisted boundary commutation fails in degree {degree}")):
        TwistedChainMap(cm.complex, cm.endo, comps)


def test_equivariant_complex_rejects_nonzero_boundary_composite():
    cover = lift_to_universal_cover(pi1_presentation(torus7(), 0))
    d1, d2 = cover.boundaries
    # a 1-cell whose loop is not trivial in pi_1, so that d1 has a row there
    ij = min((i, j) for i, j in d2.entries if (j, 0) in d1.entries)
    with pytest.raises(LiftError, match="boundary composite is nonzero"):
        EquivariantChainComplex(cover.group, cover.ranks,
                                [d1, _changed_at_one_entry(d2, ij)])


# ---------------------------------------------------------------------------
# Geometric route and route agreement
# ---------------------------------------------------------------------------

def test_geometric_empty():
    z = FreeAbelianGroup(1)
    endo = GroupEndomorphism(z, [(-1,)])
    r = reidemeister_trace_geometric([], z, endo)
    assert r.is_zero()


def test_geometric_reflection_records():
    z = FreeAbelianGroup(1)
    endo = GroupEndomorphism(z, [(-1,)])
    records = [FixedPointRecord("b0", 1, (0,)),
               FixedPointRecord("b2", 1, (1,))]
    r = reidemeister_trace_geometric(records, z, endo)
    assert augment(r) == 2
    assert nielsen(r) == 2


def test_geometric_torus_record():
    z2 = FreeAbelianGroup(2)
    endo = GroupEndomorphism(z2, [(2, 1), (1, 1)])
    r = reidemeister_trace_geometric(
        [FixedPointRecord("origin", -1, (0, 0))], z2, endo)
    assert augment(r) == -1
    assert nielsen(r) == 1


def test_route_agreement_circle_reflection():
    k = circle(4)
    f = SimplicialMap(k, k, {v: (-v) % 4 for v in k.vertices})
    lifted = lift_self_map(k, f)
    chain = reidemeister_trace_chain(lifted)
    # fixed vertices 0 and 2, both of index +1; witnesses whiskered to 0
    p = lifted.complex.presentation
    w0 = p.element_of_path([])
    path = p.tree_path(2) + [(f.apply_index(b), f.apply_index(a))
                             for (a, b) in reversed(p.tree_path(2))]
    w2 = p.element_of_path(path)
    geo = reidemeister_trace_geometric(
        [FixedPointRecord(0, 1, w0), FixedPointRecord(2, 1, w2)],
        p.group, lifted.endo)
    assert shadow_equal(chain, geo) == EQUAL


# ---------------------------------------------------------------------------
# Basepath covariance
# ---------------------------------------------------------------------------

def test_basepath_covariance():
    k = circle(4)
    f = SimplicialMap(k, k, {0: 3, 1: 2, 2: 1, 3: 0})
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    path1 = [(0, 3)]
    path2 = [(0, 1), (1, 2), (2, 3)]
    m1 = lift_map(f, path1, cover)
    m2 = lift_map(f, path2, cover)
    # each lift carries the basepath it went through; the default is the
    # tree path from the basepoint 0 to its image 3
    assert (m1.basepath, m2.basepath) == (tuple(path1), tuple(path2))
    assert lift_on_cover(cover, f).basepath == tuple(p.tree_path(3))
    assert p.tree_path(3) == [(0, 3)]
    r1 = reidemeister_trace_chain(m1)
    r2 = reidemeister_trace_chain(m2)
    assert augment(r1) == augment(r2)
    assert nielsen(r1) == nielsen(r2)
    # path2 = ell . path1 with ell the generator loop: classes shift by -1
    ell = p.element_of_path(path2 + [(3, 0)])
    assert ell != p.group.identity()
    shifted = [(twisted_class(p.group, m2.endo,
                              p.group.mul(cls.rep, p.group.inv(ell))), c)
               for cls, c in r1.items()]
    from fixtrace.grouprings import ShadowElement
    assert shadow_equal(ShadowElement(p.group, m2.endo, shifted), r2) == EQUAL
