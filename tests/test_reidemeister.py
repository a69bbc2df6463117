import random

import pytest

from fixtrace.exactalg import ChainComplex, homology
from fixtrace.grouprings import (
    DEFAULT_DEPTH,
    EQUAL,
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    GroupRingElement,
    GroupRingMatrix,
    augment,
    nielsen,
    pushforward,
    shadow_equal,
    twisted_class,
)
from fixtrace.records import FixedPointRecord, reidemeister_trace_geometric
from fixtrace.reidemeister import (
    EquivariantChainComplex,
    LiftError,
    TwistedChainMap,
    UnsupportedComplexError,
    fox_derivative,
    lift_map,
    lift_self_map,
    lift_to_universal_cover,
    reidemeister_trace_chain,
)
from fixtrace.simplicial import (
    SimplicialError,
    SimplicialMap,
    build_complex,
    lefschetz_number,
    pi1_presentation,
    product_complex,
    reverse_path,
)
from tests.oracles import full_lift, identity_map


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

def _terms(derivatives):
    """The terms of each group-ring element of ``derivatives``."""
    return {j: d.terms for j, d in derivatives.items()}


def test_fox_derivative_commutator():
    f2 = FreeGroup(2)
    a, b = ((0, 1),), ((1, 1),)
    comm = ((0, 1), (1, 1), (0, -1), (1, -1))
    # d/da (a b a^-1 b^-1) = 1 - a b a^-1,  d/db = a - a b a^-1 b^-1
    assert _terms(fox_derivative(comm, f2, ())) == _terms({
        0: GroupRingElement(f2, [((), 1), (comm[:3], -1)]),
        1: GroupRingElement(f2, [(a, 1), (comm, -1)]),
    })
    assert _terms(fox_derivative(b, f2, ())) == _terms({
        1: GroupRingElement.of(f2, ())})


def test_fox_derivative_omits_cancelled_generators():
    f2 = FreeGroup(2)
    assert fox_derivative(((0, 1), (0, -1)), f2, ()) == {}
    # x y x^-1: d/dx = 1 - x y x^-1 stays, d/dy = x
    word = ((0, 1), (1, 1), (0, -1))
    assert _terms(fox_derivative(word, f2, ())) == _terms({
        0: GroupRingElement(f2, [((), 1), (word, -1)]),
        1: GroupRingElement.of(f2, ((0, 1),)),
    })


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
    # one call per critical relator and one per surviving generator's loop
    # image: the reduced complex has ranks (1, 2, 1), not (1, 73, 72)
    assert lifted.complex.ranks == (1, 2, 1)
    assert words == [((0, 1), (1, 1), (0, -1), (1, -1)), ((0, 1),), ((1, 1),)]


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
    assert b1.entries[0, 0].terms == expected.terms


def test_lift_point():
    k = build_complex([(0,)], [0])
    p = pi1_presentation(k, 0)
    cover = lift_to_universal_cover(p)
    assert cover.ranks == (1,)
    assert cover.top_degree == 0


def test_lift_torus7_boundaries():
    k = torus7()
    full = full_lift(k, identity_map(k)).complex
    reduced = lift_to_universal_cover(pi1_presentation(k, 0))
    assert (full.ranks, reduced.ranks) == ((1, 15, 14), (1, 2, 1))
    # dd = 0 checked at construction; the integral complex that sends every
    # group element to 1 has the torus homology
    for cover in (full, reduced):
        h = homology(ChainComplex(cover.ranks, [
            cover.boundary(i).augmented().transpose()
            for i in range(1, cover.top_degree + 1)]))
        assert h.betti == (1, 2, 1)
        assert all(t == () for t in h.torsion)


def test_lift_dim3_unsupported():
    k = build_complex([tuple(range(4))], range(4))  # solid 3-simplex
    p = pi1_presentation(k, 0)
    with pytest.raises(UnsupportedComplexError):
        lift_to_universal_cover(p)


def test_lift_unrecognized_group_unsupported():
    # projective plane: pi1 = Z/2 is not recognized by the Tietze pass
    faces = [(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5)]
    k = build_complex(faces, range(6))
    p = pi1_presentation(k, 0)
    with pytest.raises(UnsupportedComplexError):
        lift_to_universal_cover(p)


# ---------------------------------------------------------------------------
# lift_map and chain traces
# ---------------------------------------------------------------------------

def test_lift_identity_components():
    k = circle(3)
    lifted = lift_self_map(k, identity_map(k))
    f1 = lifted.components[1]
    e = GroupRingElement.of(lifted.complex.presentation.group,
                            lifted.complex.presentation.group.identity())
    assert f1.entries[0, 0].terms == e.terms


def test_lift_reflection_component():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 2, 2: 1})
    lifted = lift_self_map(k, f)
    p = lifted.complex.presentation
    # degree-1 component is minus a single power of the generator
    items = list(lifted.components[1].entries[0, 0].terms.values())
    assert len(items) == 1
    g, c = items[0]
    assert c == -1
    assert sum(e for _, e in g) in (0, 1, -1) if isinstance(g, tuple) else True


def test_reflection_trace_two_classes():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 2, 2: 1})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert augment(r) == 2
    assert nielsen(r, DEFAULT_DEPTH) == 2
    assert sorted(c for _, c in r.items()) == [1, 1]


def test_rotation_trace_zero():
    k = circle(4)
    f = SimplicialMap(k, k, {v: (v + 1) % 4 for v in k.vertices})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert r.is_zero()
    assert lefschetz_number(f) == 0


def test_constant_map_trace():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 0, 2: 0})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert augment(r) == 1
    assert nielsen(r, DEFAULT_DEPTH) == 1


def test_torus_identity_trace_vanishes():
    k = torus7()
    lifted = lift_self_map(k, identity_map(k))
    r = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert augment(r) == 0
    assert r.is_zero()


def test_torus_rotation_trace_vanishes():
    k = torus7()
    f = SimplicialMap(k, k, {v: (v + 1) % 7 for v in k.vertices})
    lifted = lift_self_map(k, f)
    assert reidemeister_trace_chain(lifted, DEFAULT_DEPTH).is_zero()


def test_torus_involution_augmentation():
    k = torus7()
    f = SimplicialMap(k, k, {v: (-v) % 7 for v in k.vertices})
    lifted = lift_self_map(k, f)
    r = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
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
        assert (augment(reidemeister_trace_chain(lifted, DEFAULT_DEPTH))
                == lefschetz_number(f))


def test_trace_uses_the_requested_depth():
    from fixtrace.catalog import figure_eight_complex
    k = figure_eight_complex()
    f = SimplicialMap(k, k, {"0": "0", "1": "3", "2": "4", "3": "1", "4": "2"})
    lifted = lift_self_map(k, f)
    shallow = reidemeister_trace_chain(lifted, 3)
    assert shallow.items()
    assert all(cls.certainty == ("heuristic", 3) for cls, _ in shallow.items())
    deep = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    assert all(cls.certainty == ("heuristic", DEFAULT_DEPTH)
               for cls, _ in deep.items())


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
    r = reidemeister_trace_geometric([], z, endo, DEFAULT_DEPTH)
    assert r.is_zero()


def test_geometric_reflection_records():
    z = FreeAbelianGroup(1)
    endo = GroupEndomorphism(z, [(-1,)])
    records = [FixedPointRecord(1, (0,)), FixedPointRecord(1, (1,))]
    r = reidemeister_trace_geometric(records, z, endo, DEFAULT_DEPTH)
    assert augment(r) == 2
    assert nielsen(r, DEFAULT_DEPTH) == 2


def test_geometric_torus_record():
    z2 = FreeAbelianGroup(2)
    endo = GroupEndomorphism(z2, [(2, 1), (1, 1)])
    r = reidemeister_trace_geometric(
        [FixedPointRecord(-1, (0, 0))], z2, endo, DEFAULT_DEPTH)
    assert augment(r) == -1
    assert nielsen(r, DEFAULT_DEPTH) == 1


def test_route_agreement_circle_reflection():
    k = circle(4)
    f = SimplicialMap(k, k, {v: (-v) % 4 for v in k.vertices})
    lifted = lift_self_map(k, f)
    chain = reidemeister_trace_chain(lifted, DEFAULT_DEPTH)
    # fixed vertices 0 and 2, both of index +1; witnesses whiskered to 0
    p = lifted.complex.presentation
    w0 = p.element_of_path([])
    path = p.tree_path(2) + [(f.apply_index(b), f.apply_index(a))
                             for (a, b) in reversed(p.tree_path(2))]
    w2 = p.element_of_path(path)
    geo = reidemeister_trace_geometric(
        [FixedPointRecord(1, w0), FixedPointRecord(1, w2)],
        p.group, lifted.endo, DEFAULT_DEPTH)
    assert shadow_equal(chain, geo, DEFAULT_DEPTH) == EQUAL


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
    assert lift_map(f, None, cover).basepath == tuple(p.tree_path(3))
    assert p.tree_path(3) == [(0, 3)]
    r1 = reidemeister_trace_chain(m1, DEFAULT_DEPTH)
    r2 = reidemeister_trace_chain(m2, DEFAULT_DEPTH)
    assert augment(r1) == augment(r2)
    assert nielsen(r1, DEFAULT_DEPTH) == nielsen(r2, DEFAULT_DEPTH)
    # path2 = ell . path1 with ell the generator loop: classes shift by -1
    ell = p.element_of_path(path2 + [(3, 0)])
    assert ell != p.group.identity()
    shifted = [(twisted_class(p.group, m2.endo,
                              p.group.mul(cls.rep, p.group.inv(ell)),
                              DEFAULT_DEPTH), c)
               for cls, c in r1.items()]
    from fixtrace.grouprings import ShadowElement
    assert shadow_equal(ShadowElement(p.group, m2.endo, shifted), r2,
                        DEFAULT_DEPTH) == EQUAL


# ---------------------------------------------------------------------------
# Commutativity: R(f g) = f_* R(g f)
# ---------------------------------------------------------------------------

def _commutativity_holds(p, cover, lifts, f, g, depth):
    """Check R(f g) = f_* R(g f) and N(f g) = N(g f); return whether the
    correction loop w = beta_f . f(beta_g) . tau^-1 is nontrivial.

    f_* is the lift of f through its tree basepath beta_f, g f is lifted
    through beta_g . g(beta_f) and f g through its tree basepath tau, so
    iota(phi_gf(x)) = w . phi_fg(iota(x)) . w^-1 and ``pushforward``
    takes u = w^-1.  ``lifts`` caches each map's tree-basepath lift.
    """
    def lift(m):
        key = tuple(sorted(m.vertex_images.items()))
        if key not in lifts:
            lifts[key] = lift_map(m, None, cover)
        return lifts[key]

    lf, lg = lift(f), lift(g)
    l_fg = lift(f.compose(g))
    l_gf = lift_map(g.compose(f),
                    list(lg.basepath) + g.map_path(lf.basepath), cover)
    w = p.element_of_path(list(lf.basepath) + f.map_path(lg.basepath)
                          + reverse_path(l_fg.basepath))
    r_fg = reidemeister_trace_chain(l_fg, depth)
    r_gf = reidemeister_trace_chain(l_gf, depth)
    pushed = pushforward(lf.endo, l_gf.endo, l_fg.endo, p.group.inv(w),
                         r_gf, depth)
    assert shadow_equal(r_fg, pushed, depth) == EQUAL
    assert nielsen(r_fg, depth) == nielsen(r_gf, depth)
    return w != p.group.identity()


def _nontrivial_corrections(k, pairs, depth):
    """The number of ``pairs`` of vertex-image maps of ``k`` whose
    correction loop is nontrivial, each pair checked for commutativity."""
    p = pi1_presentation(k, k.vertices[0])
    cover = lift_to_universal_cover(p)
    lifts = {}
    return sum(_commutativity_holds(p, cover, lifts, SimplicialMap(k, k, f),
                                    SimplicialMap(k, k, g), depth)
               for f, g in pairs)


# K4 pairs (f, g) of vertex images on which [iota(g) * w] would read
# R(f g) and f_* R(g f) as DISTINCT: the first has w = g0, and R(g f) = [1]
# must go to R(f g) = [g0^-1], not to [g0].
K4_MISPUSHED = [((1, 0, 2, 3), (2, 0, 3, 1)), ((1, 2, 3, 0), (1, 2, 3, 0)),
                ((2, 0, 1, 3), (3, 2, 1, 0)), ((3, 1, 2, 0), (1, 3, 0, 2)),
                ((2, 3, 0, 1), (1, 0, 3, 2))]


def test_commutativity_on_k4_pairs():
    k = build_complex([(a, b) for a in range(4) for b in range(a + 1, 4)],
                      vertices=list(range(4)))
    rng = random.Random(0)
    pairs = K4_MISPUSHED + [
        tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(2))
        for _ in range(1500)]
    pairs = [(dict(enumerate(f)), dict(enumerate(g))) for f, g in pairs]
    assert _nontrivial_corrections(k, pairs, 3) == 406


def test_commutativity_on_figure_eight_and_torus_maps():
    k = build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                      vertices=list(range(5)))
    rng = random.Random(1)
    maps = []
    while len(maps) < 40:
        images = {v: rng.randrange(5) for v in range(5)}
        try:
            SimplicialMap(k, k, images)
        except SimplicialError:
            continue
        maps.append(images)
    pairs = [(rng.choice(maps), rng.choice(maps)) for _ in range(300)]
    assert _nontrivial_corrections(k, pairs, 4) == 27
    n = 4
    torus = product_complex(circle(n), circle(n))
    images = [lambda a, b: (a, b), lambda a, b: (b, a),
              lambda a, b: (-a - 1, -b - 1), lambda a, b: (a, a),
              lambda a, b: (b, b), lambda a, b: (1, 2)]
    maps = [{(a, b): tuple(x % n for x in f(a, b)) for a, b in torus.vertices}
            for f in images]
    pairs = [(f, g) for f in maps for g in maps]
    assert _nontrivial_corrections(torus, pairs, 3) == 1
