import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtrace import presentations
from fixtrace.documents import InputError, parse_map
from fixtrace.exactalg import (
    IntMatrix,
    homology,
    hopf_chain_trace,
    lefschetz_from_homology,
)
from fixtrace.grouprings import FreeGroup
from fixtrace.presentations import induced_pi1_endo, pi1_presentation
from fixtrace.reidemeister import lift_map, lift_to_universal_cover
from fixtrace.simplicial import (
    SimplicialError,
    SimplicialMap,
    build_complex,
    chain_complex,
    induced_chain_map,
    lefschetz_number,
    product_complex,
)
from fixtrace.words import cyclic_normal_form, cyclic_reduce, invert_word, reduce_word
from tests.oracles import compose, disjoint_union, identity_map


def counts(k):
    """The number of simplices of ``k`` in each dimension."""
    return tuple(len(level) for level in k.simplices)


def circle(n=3):
    return build_complex([(i, (i + 1) % n) for i in range(n)],
                         vertices=list(range(n)))


def torus7():
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return build_complex(faces, vertices=list(range(7)))


def figure_eight():
    return build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                         vertices=list(range(5)))


def interval():
    return build_complex([(0, 1)], vertices=[0, 1])


# ---------------------------------------------------------------------------
# build_complex
# ---------------------------------------------------------------------------

def test_build_triangle_circle():
    k = circle(3)
    assert counts(k) == (3, 3)
    assert k.euler_characteristic() == 0


def test_build_point():
    k = build_complex([(0,)], [0])
    assert counts(k) == (1,)


def test_build_torus7():
    k = torus7()
    assert counts(k) == (7, 21, 14)
    assert k.euler_characteristic() == 0
    # closed surface: every edge lies in exactly two triangles
    for e in k.n_simplices(1):
        count = sum(1 for t in k.n_simplices(2) if set(e) <= set(t))
        assert count == 2
    h = homology(chain_complex(k))
    assert h.betti == (1, 2, 1)
    assert all(t == () for t in h.torsion)


def test_build_rejects_repeats():
    with pytest.raises(SimplicialError):
        build_complex([(0, 0, 1)], [0, 1])


def reference_maximal_simplices(k):
    """The quadratic definition: each simplex tested against every simplex
    one dimension up."""
    out = []
    for d, level in enumerate(k.simplices):
        higher = k.n_simplices(d + 1)
        for s in level:
            if not any(set(s) <= set(h) for h in higher):
                out.append(s)
    return out


@st.composite
def random_complexes(draw):
    """Face closures of up to 8 random simplices of dimension 0-3 on 7
    declared vertices, some of which may stay isolated."""
    simplices = draw(st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=4), max_size=8))
    return build_complex([tuple(sorted(s)) for s in simplices],
                         vertices=list(range(7)))


@given(random_complexes())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_maximal_simplices_matches_reference(k):
    assert k.maximal_simplices() == reference_maximal_simplices(k)


# ---------------------------------------------------------------------------
# chain functor
# ---------------------------------------------------------------------------

def test_chain_complex_circle():
    c = chain_complex(circle(3))
    assert c.degrees == (3, 3)
    assert c.boundary_squares_to_zero()


def test_chain_complex_point():
    c = chain_complex(build_complex([(0,)], [0]))
    assert c.degrees == (1,)


def test_chain_complex_torus_dd_zero():
    assert chain_complex(torus7()).boundary_squares_to_zero()


def reflection_triangle():
    k = circle(3)
    return SimplicialMap(k, k, {0: 0, 1: 2, 2: 1})


def test_induced_chain_map_identity():
    m = induced_chain_map(identity_map(circle(3)))
    for i in range(2):
        f = m.component(i)
        assert all(f[a, a] == 1 for a in range(f.rows))


def test_induced_chain_map_reflection_sign():
    m = induced_chain_map(reflection_triangle())
    k = circle(3)
    j = k.n_simplices(1).index((1, 2))
    assert m.component(1)[j, j] == -1


def test_induced_chain_map_constant():
    k = circle(3)
    f = SimplicialMap(k, k, {0: 0, 1: 0, 2: 0})
    m = induced_chain_map(f)
    assert m.component(1).is_zero()


def test_functoriality():
    k = torus7()
    rng = random.Random(3)
    maps = [SimplicialMap(k, k, {v: (v + s) % 7 for v in k.vertices})
            for s in (1, 3)]
    maps.append(SimplicialMap(k, k, {v: (-v) % 7 for v in k.vertices}))
    for f in maps:
        for g in maps:
            lhs = induced_chain_map(g.compose(f))
            rhs = compose(induced_chain_map(g), induced_chain_map(f))
            assert all(lhs.component(i) == rhs.component(i) for i in range(3))


# ---------------------------------------------------------------------------
# Lefschetz numbers
# ---------------------------------------------------------------------------

def test_lefschetz_reflection():
    assert lefschetz_number(reflection_triangle()) == 2


def test_lefschetz_torus_identity():
    assert lefschetz_number(identity_map(torus7())) == 0


def test_lefschetz_torus_reflectionlike():
    k = torus7()
    f = SimplicialMap(k, k, {v: (-v) % 7 for v in k.vertices})
    # an involution of the torus; its Lefschetz number equals the chain trace
    m = induced_chain_map(f)
    assert lefschetz_from_homology(m) == hopf_chain_trace(m)


def test_lefschetz_relabel_invariant():
    # same reflection, with vertices declared in a rotated order
    k2 = build_complex([(0, 1), (1, 2), (0, 2)], vertices=[2, 0, 1])
    f2 = SimplicialMap(k2, k2, {0: 0, 1: 2, 2: 1})
    assert lefschetz_number(f2) == 2


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_product_point_circle():
    p = build_complex([("p",)], ["p"])
    k = circle(3)
    prod = product_complex(p, k)
    assert counts(prod) == counts(k)
    assert homology(chain_complex(prod)).betti == (1, 1)


def test_product_circle_circle():
    prod = product_complex(circle(3), circle(3))
    assert prod.euler_characteristic() == 0
    h = homology(chain_complex(prod))
    assert h.betti == (1, 2, 1)


def test_product_interval_interval():
    prod = product_complex(interval(), interval())
    assert prod.euler_characteristic() == 1
    assert homology(chain_complex(prod)).betti == (1, 0, 0)


def test_product_euler_multiplicative():
    shapes = [circle(3), interval(), figure_eight(),
              build_complex([(0,)], [0])]
    for a in shapes:
        for b in shapes:
            prod = product_complex(a, b)
            assert (prod.euler_characteristic()
                    == a.euler_characteristic() * b.euler_characteristic())


# ---------------------------------------------------------------------------
# Fundamental groups
# ---------------------------------------------------------------------------

def test_pi1_circle_free_rank1():
    p = pi1_presentation(circle(3), 0)
    assert (p.group.kind, p.group.rank) == ("free", 1)


def test_pi1_figure_eight():
    p = pi1_presentation(figure_eight(), 0)
    assert (p.group.kind, p.group.rank) == ("free", 2)


def test_pi1_graph_rank_formula():
    for k in [circle(3), circle(5), figure_eight()]:
        p = pi1_presentation(k, k.vertices[0])
        assert (p.group.kind, p.group.rank) == ("free", 1 - k.euler_characteristic())


def test_pi1_torus7():
    p = pi1_presentation(torus7(), 0)
    assert (p.group.kind, p.group.rank) == ("free_abelian", 2)


def test_pi1_staircase_torus():
    prod = product_complex(circle(3), circle(3))
    p = pi1_presentation(prod, prod.vertices[0])
    assert (p.group.kind, p.group.rank) == ("free_abelian", 2)


def test_pi1_disk_trivial():
    prod = product_complex(interval(), interval())
    p = pi1_presentation(prod, prod.vertices[0])
    assert (p.group.kind, p.group.rank) == ("free", 0)


def test_pi1_sphere_trivial():
    # boundary of the 3-simplex
    import itertools
    faces = list(itertools.combinations(range(4), 3))
    k = build_complex(faces, range(4))
    p = pi1_presentation(k, 0)
    assert (p.group.kind, p.group.rank) == ("free", 0)


# ---------------------------------------------------------------------------
# Induced pi1 endomorphisms
# ---------------------------------------------------------------------------

def _lifted_endo(f, basepath):
    """The endomorphism ``lift_map`` induces through ``basepath``, with the
    first vertex as the basepoint."""
    k = f.source
    cover = lift_to_universal_cover(pi1_presentation(k, k.vertices[0]))
    return lift_map(f, basepath, cover).endo


def test_pi1_endo_identity():
    assert _lifted_endo(identity_map(circle(3)), []).is_identity()


def test_pi1_endo_reflection():
    assert _lifted_endo(reflection_triangle(), []).images[0] == ((0, -1),)


def test_pi1_endo_torus_rotation():
    k = torus7()
    f = SimplicialMap(k, k, {v: (v + 1) % 7 for v in k.vertices})
    # rotation is homotopic to the identity, so the matrix is the identity
    endo = _lifted_endo(f, [(0, 1)])
    assert endo.matrix() == IntMatrix.identity(2)


def test_map_reader_rejects_bad_basepath():
    # The map reader checks a non-empty basepath once, for every command:
    # an edge path from the first vertex to its image (here C4's rotation
    # moves "0" to "1"), so no lift re-checks it.
    doc = {"complex": {"vertices": ["0", "1", "2", "3"],
                       "simplices": [["0", "1"], ["1", "2"], ["2", "3"],
                                     ["0", "3"]]},
           "vertex_images": {"0": "1", "1": "2", "2": "3", "3": "0"}}
    broken = "basepath step {} does not continue an edge path"
    for steps, message in (
            ([["0", "2"]], broken.format(["0", "2"])),
            ([["1", "2"]], broken.format(["1", "2"])),
            ([["0", "1"], ["2", "3"]], broken.format(["2", "3"])),
            ([["0", "3"]],
             "basepath does not end at the image of the first vertex")):
        with pytest.raises(InputError) as info:
            parse_map(dict(doc, basepath=steps))
        assert str(info.value) == message
    for good in ([["0", "1"]],
                 [["0", "0"], ["0", "3"], ["3", "0"], ["0", "1"]]):
        assert parse_map(dict(doc, basepath=good))[2] == [
            (int(u), int(v)) for u, v in good]


def test_pi1_endo_conjugates_each_loop_word_by_the_basepath_word():
    a, b = ((0, 1),), ((1, 1),)
    endo = induced_pi1_endo(FreeGroup(2), reduce_word, a, [b, a + b])
    assert endo.images == [((0, 1), (1, 1), (0, -1)), ((0, 1), (0, 1),
                                                       (1, 1), (0, -1))]


# ---------------------------------------------------------------------------
# Components / unions
# ---------------------------------------------------------------------------

def test_components_and_subcomplex():
    k = disjoint_union(circle(3), build_complex([(0,)], [0]))
    comps = k.components()
    assert len(comps) == 2
    sub = k.subcomplex(comps[0])
    assert counts(sub) == (3, 3)


def test_disjoint_union_euler():
    k = disjoint_union(circle(3), torus7())
    assert k.euler_characteristic() == 0
    assert len(k.components()) == 2


# ---------------------------------------------------------------------------
# Tietze elimination against the quadratic reference
# ---------------------------------------------------------------------------

Word = Tuple[Tuple[int, int], ...]


def _reference_substitute(word: Word, mapping: Dict[int, Word]) -> Word:
    out: List[Tuple[int, int]] = []
    for g, e in word:
        rep = mapping.get(g)
        if rep is None:
            out.append((g, e))
        else:
            out.extend(rep if e == 1 else invert_word(rep))
    return reduce_word(out)


def reference_simplify_presentation(ngens: int, relators: List[Word]):
    """The elimination as first written: every step re-normalizes, re-sorts
    and re-substitutes all relators and all substitution words."""
    subst: Dict[int, Word] = {g: ((g, 1),) for g in range(ngens)}
    alive = set(range(ngens))
    rels = [reduce_word(r) for r in relators]

    def normalize(rels_in: List[Word]) -> List[Word]:
        seen = set()
        out = []
        for r in rels_in:
            r = cyclic_reduce(r)
            if not r:
                continue
            canon = min(cyclic_normal_form(r), cyclic_normal_form(invert_word(r)))
            if canon in seen:
                continue
            seen.add(canon)
            out.append(r)
        return out

    while True:
        rels = normalize(rels)
        candidate = None
        for ridx, r in sorted(enumerate(rels), key=lambda p: (len(p[1]), p[0])):
            counts: Dict[int, int] = {}
            for g, _ in r:
                counts[g] = counts.get(g, 0) + 1
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                candidate = (ridx, r, singles[0])
                break
        if candidate is None:
            break
        ridx, r, x = candidate
        pos = next(i for i, (g, _) in enumerate(r) if g == x)
        eps = r[pos][1]
        u = r[:pos]
        v = r[pos + 1:]
        # r = u x^eps v = 1  =>  x^eps = u^-1 v^-1
        w = reduce_word(invert_word(u) + invert_word(v))
        if eps == -1:
            w = invert_word(w)
        mapping = {x: w}
        alive.discard(x)
        rels = [r2 for i, r2 in enumerate(rels) if i != ridx]
        rels = [_reference_substitute(r2, mapping) for r2 in rels]
        subst = {g: _reference_substitute(s, mapping) for g, s in subst.items()}
        if any(len(r2) > presentations._MAX_RELATOR_LENGTH for r2 in rels):
            return None  # give up; caller reports Unsupported
    return sorted(alive), subst, normalize(rels)


@st.composite
def relator_lists(draw):
    """Random relators over up to 7 generators, with copies of some of them
    inserted up to rotation and inversion, so that duplicates get dropped."""
    ngens = draw(st.integers(0, 7))
    letter = st.tuples(st.integers(0, max(ngens - 1, 0)), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=6 if ngens else 0).map(tuple)
    rels = draw(st.lists(word, max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rels else 0):
        r = rels[draw(st.integers(0, len(rels) - 1))]
        k = draw(st.integers(0, max(len(r) - 1, 0)))
        r = r[k:] + r[:k]
        if draw(st.booleans()):
            r = invert_word(r)
        rels.insert(draw(st.integers(0, len(rels))), r)
    return ngens, rels


def _presentation_input(k):
    """The (ngens, relators) that ``pi1_presentation`` hands to the
    elimination for the complex at its first vertex."""
    calls = []
    real = presentations._simplify_presentation

    def record(ngens, relators):
        calls.append((ngens, list(relators)))
        return real(ngens, relators)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "_simplify_presentation", record)
        pi1_presentation(k, k.vertices[0])
    return calls[0]


CATALOG_PRESENTATIONS = {
    **{f"staircase{n}": (lambda n=n: product_complex(circle(n), circle(n)))
       for n in range(4, 9)},
    "torus7": torus7,
    "figure_eight": figure_eight,
}

_oracle_settings = settings(derandomize=True, max_examples=600, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(CATALOG_PRESENTATIONS))
def test_simplify_matches_reference_on_catalog_presentations(name):
    ngens, rels = _presentation_input(CATALOG_PRESENTATIONS[name]())
    got = presentations._simplify_presentation(ngens, rels)
    assert got is not None
    assert got == reference_simplify_presentation(ngens, rels)


@_oracle_settings
@given(relator_lists())
def test_simplify_matches_reference(case):
    ngens, rels = case
    assert (presentations._simplify_presentation(ngens, rels)
            == reference_simplify_presentation(ngens, rels))


# (ngens, relators, whether a cap of 5 letters makes the elimination give up)
CAPPED_INPUTS = [
    # x0 = x1^-3 turns x0^3 x2^2 into 11 letters
    (3, [((0, 1),) + ((1, 1),) * 3, ((0, 1),) * 3 + ((2, 1),) * 2], True),
    # x2^6 holds no eliminated generator and is already too long
    (3, [((0, 1), (1, 1)), ((2, 1),) * 6], True),
    # (x0 x1^-1)^3 is too long until x0 = x1 rewrites it to nothing
    (2, [((0, 1), (1, -1)), ((0, 1), (1, -1)) * 3], False),
]


def test_simplify_gives_up_with_reference_on_fixed_inputs():
    inputs = [(ngens, rels, gives_up) for ngens, rels, gives_up in CAPPED_INPUTS]
    inputs += [(*_presentation_input(make()), False)
               for _, make in sorted(CATALOG_PRESENTATIONS.items())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "_MAX_RELATOR_LENGTH", 5)
        for ngens, rels, gives_up in inputs:
            got = presentations._simplify_presentation(ngens, rels)
            assert (got is None) == gives_up
            assert got == reference_simplify_presentation(ngens, rels)


@_oracle_settings
@given(relator_lists())
def test_simplify_gives_up_with_reference(case):
    ngens, rels = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "_MAX_RELATOR_LENGTH", 5)
        assert (presentations._simplify_presentation(ngens, rels)
                == reference_simplify_presentation(ngens, rels))
