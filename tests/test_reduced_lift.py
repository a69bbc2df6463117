"""The lift on the Tietze-reduced complex against the full lift.

Commands lift on the reduced complex: the surviving generators and the
critical relators, with the chain equivalence the Tietze eliminations
record.  A Reidemeister trace does not change under a chain homotopy
equivalence, so the reduced trace must equal the trace of the full lift
on the tree-contracted complex (``tests.oracles.full_lift``), class by
class, on every map the commands see.  The pins give the reduced ranks,
the traces of the 2-sphere, whose presentation drops a duplicate
relator, and two complexes whose critical relators were conjugated on
the way, where pi_2 must undo the conjugator.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

from fixtrace import catalog as cat
from fixtrace.bundles import NotConstructibleError
from fixtrace.documents import parse_map
from fixtrace.grouprings import DEFAULT_DEPTH, shadow_rendering
from fixtrace.pairs import parse_pair
from fixtrace.presentations import pi1_presentation
from fixtrace.reidemeister import (UnsupportedComplexError, lift_self_map,
                                   lift_to_universal_cover,
                                   reidemeister_trace_chain)
from fixtrace.simplicial import (SimplicialError, SimplicialMap, build_complex,
                                product_complex)
from tests.oracles import full_lift, identity_map
from tests.test_random_pairs import PAIRS, SEED, random_pair

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _classes(trace):
    return [(cls.key, cls.rep, cls.certainty, c) for cls, c in trace.items()]


def _assert_traces_agree(k, f, basepath=None):
    """The reduced and full traces of f are equal as shadow elements: the
    same classes, keys and representatives, with the same coefficients."""
    reduced = reidemeister_trace_chain(lift_self_map(k, f, basepath),
                                       DEFAULT_DEPTH)
    full = reidemeister_trace_chain(full_lift(k, f, basepath), DEFAULT_DEPTH)
    assert _classes(reduced) == _classes(full)


def _assert_identity_trace_is_euler(k):
    """R(id) = chi(k) [1]: the identity lifts to identity matrices, which
    needs pi_2 . iota_2 = id on the critical cells."""
    lift = lift_self_map(k, identity_map(k))
    chi, one = k.euler_characteristic(), lift.complex.group.identity()
    trace = reidemeister_trace_chain(lift, DEFAULT_DEPTH)
    assert [(cls.rep, c) for cls, c in trace.items()] == (
        [(one, chi)] if chi else [])
    return lift


def _documents():
    """(name, command, document) of every catalog document and every
    seed-1 benchmark document."""
    sys.path.insert(0, str(BENCH))
    import workloads
    docs = [(name, kind, doc) for name, kind, doc in
            workloads.catalog_documents() if doc is not None]
    for make in workloads.WORKLOADS.values():
        docs += [(c.name, c.command, c.document)
                 for c in make(random.Random(1))]
    return docs


def test_reduced_traces_equal_full_traces_on_catalog_and_benchmark_maps():
    seen = {"map": 0, "pair": 0}
    for name, kind, doc in _documents():
        if kind in ("selfmap", "lefschetz", "reidemeister"):
            k, f, basepath, _ = parse_map(doc)
            _assert_traces_agree(k, f, basepath or None)
            seen["map"] += 1
        elif kind in ("bundle_pair", "bundle-verify"):
            try:
                total, f = parse_pair(doc).total
            except NotConstructibleError:  # circle_degree_map at d = 2
                continue
            _assert_traces_agree(total.complex, f)
            seen["pair"] += 1
    assert seen == {"map": 26, "pair": 11}


def torus7_negation():
    k = cat.torus7_complex()
    return k, SimplicialMap(k, k, {v: str(-int(v) % 7) for v in k.vertices})


def test_reduced_trace_equals_full_trace_on_torus7_negation():
    k, f = torus7_negation()
    _assert_traces_agree(k, f)
    trace = reidemeister_trace_chain(lift_self_map(k, f), DEFAULT_DEPTH)
    assert shadow_rendering(trace) == [["[0,0]", 1], ["[0,1]", 1],
                                       ["[1,0]", 1], ["[1,1]", 1]]


def test_reduced_traces_equal_full_traces_on_random_total_spaces():
    rng = random.Random(SEED)
    compared = 0
    for _ in range(PAIRS):
        pair = random_pair(rng)
        try:
            total, f = pair.total
            _assert_traces_agree(total.complex, f)
        except (NotConstructibleError, UnsupportedComplexError):
            continue
        compared += 1
    assert compared == 54


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10])
def test_staircase_torus_lifts_over_ranks_1_2_1(n):
    k = product_complex(cat.circle_complex(n), cat.circle_complex(n))
    assert lift_to_universal_cover(pi1_presentation(k, k.vertices[0])).ranks \
        == (1, 2, 1)


@pytest.mark.parametrize("base, fiber, size", [
    ("reflection", "reflection", 3), ("constant", "reflection", 4),
    ("identity", "reflection", 3), ("rotation", "identity", 4),
    ("reflection", "reflection", 5)])
def test_product_bundle_total_space_lifts_over_ranks_1_2_1(base, fiber, size):
    pair = cat.trivial_product_pair(base, fiber, fiber_size=size)
    assert pair.total_lift.complex.ranks == (1, 2, 1)


def tetrahedron_boundary():
    return build_complex(itertools.combinations("abcd", 3), "abcd")


def test_sphere_drops_a_duplicate_relator_and_keeps_it_as_a_cycle():
    p = pi1_presentation(tetrahedron_boundary(), "a")
    solved, steps = p.record
    # three relators solve the three generators; the fourth is dropped as
    # a duplicate of the third, so it is the one critical cell, a cycle
    assert (solved, p.relators) == ({0, 1, 2}, {})
    assert [(j, i, dropped) for j, i, _, dropped in steps] == [
        (3, 0, False), (3, 1, False), (3, 2, True)]
    cover = lift_to_universal_cover(p)
    assert cover.ranks == (1, 0, 1)
    assert cover.boundary(2).entries == {}


def test_sphere_identity_has_trace_two_and_a_transposition_zero():
    k = tetrahedron_boundary()
    for images, want in (("abcd", [["[]", 2]]), ("bacd", [])):
        f = SimplicialMap(k, k, dict(zip("abcd", images)))
        _assert_traces_agree(k, f)
        trace = reidemeister_trace_chain(lift_self_map(k, f), DEFAULT_DEPTH)
        assert shadow_rendering(trace) == want


def test_duplicate_of_a_critical_relator_projects_onto_it():
    """The 7-vertex torus together with its image under the swap of 5 and
    6 is simply connected, and one relator is dropped as a duplicate of
    one that is never solved: pi_2 of the dropped one must carry the kept
    one's share, or the swap's trace reads -3 instead of L(f) = -2."""
    t, swap = cat.torus7_complex(), {"5": "6", "6": "5"}
    triangles = [[t.vertices[v] for v in s] for s in t.n_simplices(2)]
    k = build_complex(triangles + [[swap.get(v, v) for v in s]
                                   for s in triangles], t.vertices)
    solved, steps = pi1_presentation(k, "0").record
    assert [(d, j) for d, j, _, dropped in steps
            if dropped and j not in solved] == [(18, 17)]
    f = SimplicialMap(k, k, {v: swap.get(v, v) for v in k.vertices})
    _assert_traces_agree(k, f)
    trace = reidemeister_trace_chain(lift_self_map(k, f), DEFAULT_DEPTH)
    assert shadow_rendering(trace) == [["[]", -2]]


def _torus7_with(triangles, order):
    """The 7-vertex torus with the given triangles added, its vertices
    indexed in the given order, the first being the basepoint."""
    t = cat.torus7_complex()
    return build_complex([[t.vertices[v] for v in s] for s in t.n_simplices(2)]
                         + triangles, order)


def _conjugated_unsolved(k):
    """The unsolved relators whose conjugators ``cyclic_reduce`` stripped."""
    solved, steps = pi1_presentation(k, k.vertices[0]).record
    return {j for j, i, _, _ in steps if i == j and j not in solved}


def test_conjugated_duplicate_projects_through_its_conjugator():
    """Coning off the loop 0-3-6 leaves Z; relator 15 is conjugated by
    x^-1, x the edge generator 15, and then dropped as a duplicate of
    relator 7.  Its chain is x^-1 times its own cell plus the kept one's
    share, so pi_2 must undo the x^-1, or R(id) reads [-1] instead of
    chi [1] = [0]."""
    k = _torus7_with([["c", "3", "6"], ["c", "0", "6"], ["c", "0", "3"]],
                     ["1", "4", "6", "3", "2", "0", "c", "5"])
    p = pi1_presentation(k, "1")
    solved, steps = p.record
    assert (p.group.rank, p.relators, _conjugated_unsolved(k)) == (1, {}, {15})
    assert [(d, j, terms) for d, j, terms, dropped in steps if dropped] == [
        (15, 7, [((), 1)])]
    _assert_traces_agree(k, identity_map(k))
    _assert_identity_trace_is_euler(k)


def test_conjugated_surviving_relator_projects_through_its_conjugator():
    """Two flaps on the 7-vertex torus: the commutator that survives,
    relator 14, was conjugated on the way, and the identity must still
    lift to the identity in degree two (before pi_2 undid the conjugator,
    the twisted commutation check failed here)."""
    k = _torus7_with([["a", "2", "5"], ["b", "1", "5"], ["b", "0", "1"]],
                     ["a", "4", "2", "3", "1", "5", "6", "0", "b"])
    p = pi1_presentation(k, "a")
    assert (p.group.rank, list(p.relators), _conjugated_unsolved(k)) == (
        2, [14], {14})
    _assert_traces_agree(k, identity_map(k))
    lift = _assert_identity_trace_is_euler(k)
    [(ij, entry)] = lift.components[2].entries.items()
    assert (ij, list(entry.terms.values())) == ((0, 0), [(p.group.identity(),
                                                          1)])


def _small_complexes(rng, count):
    """Connected complexes on 4 to 7 vertices, from random triangles and
    edges, whose fundamental group is recognized."""
    while count:
        n = rng.randrange(4, 8)
        triangles = list(itertools.combinations(range(n), 3))
        k = build_complex(
            rng.sample(triangles, min(len(triangles), rng.randrange(1, 9)))
            + rng.sample(list(itertools.combinations(range(n), 2)),
                         rng.randrange(0, 4)), list(range(n)))
        if len(k.components()) == 1 and pi1_presentation(k, 0).group:
            count -= 1
            yield k


def test_reduced_traces_equal_full_traces_on_small_complexes():
    """Conjugated, rotated and inverted duplicates all occur here, over
    free groups of rank up to four, where classes are heuristic.  Every
    relator conjugated here is solved later; the two pins above conjugate
    relators that stay critical."""
    rng = random.Random(5)
    seen = {"conjugated": 0, "conjugated and kept": 0,
            "rotated duplicate": 0, "maps": 0}
    for k in _small_complexes(rng, 300):
        _, steps = pi1_presentation(k, 0).record
        seen["conjugated"] += any(i == j for j, i, _, _ in steps)
        seen["conjugated and kept"] += bool(_conjugated_unsolved(k))
        _assert_identity_trace_is_euler(k)
        seen["rotated duplicate"] += any(
            dropped and terms != [((), -1)] for _, _, terms, dropped in steps)
        for _ in range(12):
            images = {v: rng.randrange(len(k.vertices)) for v in k.vertices}
            try:
                f = SimplicialMap(k, k, images)
            except SimplicialError:
                continue
            _assert_traces_agree(k, f)
            seen["maps"] += 1
    assert seen == {"conjugated": 3, "conjugated and kept": 0,
                    "rotated duplicate": 8, "maps": 1662}
