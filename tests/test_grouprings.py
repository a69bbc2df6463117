import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtrace.grouprings import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupEndomorphism,
    GroupError,
    GroupHomomorphism,
    GroupRingElement,
    GroupRingMatrix,
    IndeterminateError,
    ShadowElement,
    augment,
    classes_equal,
    identity_endomorphism,
    nielsen,
    pushforward,
    shadow_equal,
    twisted_class,
)
from fixtrace.grouprings import _power
from fixtrace.words import expand_word, invert_word, join_reduced, reduce_word
from tests.chain_models import twisted_hs_trace

Z = FreeAbelianGroup(1)


def z_endo(d):
    return GroupEndomorphism(Z, [(d,)])


# ---------------------------------------------------------------------------
# twisted_class
# ---------------------------------------------------------------------------

def test_twisted_class_identity_on_Z():
    cls = twisted_class(Z, z_endo(1), (5,))
    assert cls.rep == (5,)
    assert cls.is_certain


def test_twisted_class_reflection_on_Z():
    endo = z_endo(-1)
    keys = {twisted_class(Z, endo, (g,)).key for g in range(-6, 7)}
    assert len(keys) == 2
    assert twisted_class(Z, endo, (0,)).key == twisted_class(Z, endo, (2,)).key
    assert twisted_class(Z, endo, (1,)).key == twisted_class(Z, endo, (-3,)).key


def test_twisted_class_doubling_on_Z():
    endo = z_endo(2)
    keys = {twisted_class(Z, endo, (g,)).key for g in range(-8, 9)}
    assert len(keys) == 1


def test_classes_equal_examples():
    assert classes_equal(Z, z_endo(-1), (0,), (2,)) == EQUAL
    assert classes_equal(Z, z_endo(-1), (0,), (1,)) == DISTINCT
    f2 = FreeGroup(2)
    ab = ((0, 1), (1, 1))
    ba = ((1, 1), (0, 1))
    assert classes_equal(f2, identity_endomorphism(f2), ab, ba) == EQUAL


def _class_count(cl):
    """Number of twisted classes from the Smith diagonal of I - A, or None
    when there are infinitely many."""
    return None if 0 in cl.diag else math.prod(cl.diag)


def _class_reps(cl):
    """One representative per twisted class, when there are finitely many."""
    return [cl.rep_of(combo)
            for combo in itertools.product(*(range(d) for d in cl.diag))]


def test_counting_by_determinant():
    # number of twisted classes of Z^n equals |det(I - A)| when nonzero
    from fixtrace.exactalg import IntMatrix
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        g = FreeAbelianGroup(n)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        images = [tuple(a[i][j] for i in range(n)) for j in range(n)]
        endo = GroupEndomorphism(g, images)
        m = IntMatrix.identity(n) - endo.matrix()
        det = m.determinant()
        if det == 0:
            continue
        cl = endo.classifier
        assert _class_count(cl) == abs(det)
        reps = _class_reps(cl)
        assert len({twisted_class(g, endo, r).key for r in reps}) == abs(det)


def test_classifier_of_rank1_endomorphisms():
    g = FreeAbelianGroup(1)
    for d in range(-3, 6):
        endo = GroupEndomorphism(g, [(d,)])
        assert endo.classifier.diag == [abs(1 - d)]
        assert endo.classifier is endo.classifier


def test_canonicalization_stability_free_abelian():
    rng = random.Random(23)
    g = FreeAbelianGroup(2)
    endo = GroupEndomorphism(g, [(2, 1), (1, 1)])
    base = (3, -4)
    want = twisted_class(g, endo, base).key
    for _ in range(50):
        h = (rng.randint(-5, 5), rng.randint(-5, 5))
        moved = g.mul(g.mul(h, base), g.inv(endo.apply(h)))
        assert twisted_class(g, endo, moved).key == want


def test_canonicalization_stability_finite():
    rng = random.Random(29)
    s3 = FiniteGroup.symmetric3()
    # conjugation by a fixed element is an endomorphism
    c = 3
    endo = GroupEndomorphism(s3, [s3.mul(s3.mul(c, g), s3.inv(c))
                                  for g in range(6)])
    base = 4
    want = twisted_class(s3, endo, base).key
    for _ in range(50):
        h = rng.randrange(6)
        moved = s3.mul(s3.mul(h, base), s3.inv(endo.apply(h)))
        assert twisted_class(s3, endo, moved).key == want


def test_canonicalization_stability_free_identity():
    rng = random.Random(31)
    f2 = FreeGroup(2)
    endo = identity_endomorphism(f2)
    base = ((0, 1), (1, 1), (0, -1))
    want = twisted_class(f2, endo, base).key
    for _ in range(50):
        h = tuple((rng.randrange(2), rng.choice([1, -1])) for _ in range(3))
        moved = f2.mul(f2.mul(h, base), f2.inv(endo.apply(h)))
        assert twisted_class(f2, endo, moved).key == want


def test_free_heuristic_flagged():
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, [((1, 1),), ((0, 1),)])  # swap
    cls = twisted_class(f2, endo, ((0, 1), (1, 1)))
    assert not cls.is_certain


def test_classes_unknown_possible():
    f2 = FreeGroup(2)
    # a -> a^3 b, b -> a b^2: det(I - A_ab) = ... chosen so coker is trivial
    endo = GroupEndomorphism(
        f2, [((0, 1), (0, 1), (0, 1), (1, 1)), ((0, 1), (1, 1), (1, 1))])
    verdict = classes_equal(f2, endo, (), ((0, 1),), depth=3)
    assert verdict in (UNKNOWN, EQUAL)
    # with a tiny depth the search cannot conclude
    assert classes_equal(f2, endo, (), ((0, 1), (0, 1), (1, 1), (0, 1), (1, -1)),
                         depth=1) == UNKNOWN


# ---------------------------------------------------------------------------
# group ring and twisted traces
# ---------------------------------------------------------------------------

def ring_elem(group, *pairs):
    return GroupRingElement(group, pairs)


def test_hs_trace_single_identity():
    for group in [Z, FiniteGroup.cyclic(4), FreeGroup(2)]:
        endo = identity_endomorphism(group)
        m = GroupRingMatrix.identity(group, 1)
        s = twisted_hs_trace(m, endo)
        assert augment(s) == 1
        assert len(s.terms) == 1


def test_hs_trace_doubling_collapse():
    endo = z_endo(2)
    e = ring_elem(Z, ((0,), 1), ((1,), 1))
    m = GroupRingMatrix.from_rows(Z, [[e]])
    s = twisted_hs_trace(m, endo)
    assert augment(s) == 2
    assert len(s.terms) == 1  # both terms land in the single class


def test_hs_trace_zero():
    m = GroupRingMatrix(Z, 2, 2)
    s = twisted_hs_trace(m, z_endo(3))
    assert s.is_zero()


def test_matrix_apply_cancels_to_zero():
    # phi sends t to 1, so the entry t - 1 maps to 1 - 1 = 0
    m = GroupRingMatrix.from_rows(Z, [[ring_elem(Z, ((1,), 1), ((0,), -1))]])
    assert not m.is_zero()
    image = m.apply(z_endo(0))
    assert image.is_zero()
    assert image.entries == {}
    assert image == GroupRingMatrix(Z, 1, 1)


def test_matrix_entry_out_of_range():
    one = ring_elem(Z, ((0,), 1))
    for ij in [(1, 0), (0, 2), (-1, 0)]:
        with pytest.raises(GroupError):
            GroupRingMatrix(Z, 1, 2, {ij: one})
    # zero entries are dropped, not stored
    assert GroupRingMatrix(Z, 1, 2, {(0, 1): GroupRingElement(Z)}).entries == {}


def _random_ring_matrix(group, endo, rng, n, elements):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = []
            for _ in range(rng.randrange(3)):
                terms.append((rng.choice(elements), rng.randint(-2, 2)))
            row.append(GroupRingElement(group, terms))
        rows.append(row)
    return GroupRingMatrix.from_rows(group, rows)


def test_shadow_cyclicity_random():
    rng = random.Random(5)
    cases = []
    z2 = FreeAbelianGroup(2)
    cases.append((z2, GroupEndomorphism(z2, [(0, 1), (1, 0)]),
                  [(0, 0), (1, 0), (0, 1), (-1, 2)]))
    cases.append((Z, z_endo(-1), [(0,), (1,), (2,), (-1,)]))
    cases.append((Z, z_endo(3), [(0,), (1,), (-2,)]))
    c4 = FiniteGroup.cyclic(4)
    cases.append((c4, GroupEndomorphism(c4, [0, 3, 2, 1]), [0, 1, 2, 3]))
    s3 = FiniteGroup.symmetric3()
    cases.append((s3, identity_endomorphism(s3), list(range(6))))
    count = 0
    for group, endo, elements in cases:
        for _ in range(25):
            n = rng.choice([1, 2])
            a = _random_ring_matrix(group, endo, rng, n, elements)
            b = _random_ring_matrix(group, endo, rng, n, elements)
            lhs = twisted_hs_trace(a * b, endo)
            rhs = twisted_hs_trace(b * a.apply(endo), endo)
            assert shadow_equal(lhs, rhs) == EQUAL
            count += 1
    assert count >= 100


# ---------------------------------------------------------------------------
# augment / nielsen
# ---------------------------------------------------------------------------

def test_augment_examples():
    endo = z_endo(-1)
    empty = ShadowElement.zero(Z, endo)
    assert augment(empty) == 0
    s = ShadowElement(Z, endo, [(twisted_class(Z, endo, (0,)), 1),
                                (twisted_class(Z, endo, (1,)), 1)])
    assert augment(s) == 2
    endo3 = z_endo(3)
    s3 = ShadowElement(Z, endo3, [(twisted_class(Z, endo3, (0,)), -1),
                                  (twisted_class(Z, endo3, (1,)), -1)])
    assert augment(s3) == -2


def test_nielsen_examples():
    endo = z_endo(-1)
    assert nielsen(ShadowElement.zero(Z, endo)) == 0
    s = ShadowElement(Z, endo, [(twisted_class(Z, endo, (0,)), 1),
                                (twisted_class(Z, endo, (1,)), 1)])
    assert nielsen(s) == 2
    g2 = FreeAbelianGroup(2)
    endo_a = GroupEndomorphism(g2, [(2, 1), (1, 1)])
    s2 = ShadowElement(g2, endo_a, [(twisted_class(g2, endo_a, (0, 0)), -1)])
    assert nielsen(s2) == 1


def test_consolidated_merges_equal_classes_with_different_keys():
    # phi: a -> b, b -> a^-1.  b and a^-1 b a a b are twisted conjugate
    # (their depth-1 orbit balls meet), yet depth 1 gives them different
    # keys, so consolidation must merge them.
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, [((1, 1),), ((0, -1),)])
    g = ((1, 1),)
    h = ((0, -1), (1, 1), (0, 1), (0, 1), (1, 1))
    cg = twisted_class(f2, endo, g, depth=1)
    ch = twisted_class(f2, endo, h, depth=1)
    assert cg.key != ch.key
    assert classes_equal(f2, endo, cg.rep, ch.rep, depth=1) == EQUAL
    merged = ShadowElement(f2, endo, [(cg, 1), (ch, 1)]).consolidated(depth=1)
    assert [c for _, c in merged.items()] == [2]
    assert nielsen(ShadowElement(f2, endo, [(cg, 1), (ch, 1)]), depth=1) == 1


def test_nielsen_indeterminate():
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(
        f2, [((0, 1), (0, 1), (0, 1), (1, 1)), ((0, 1), (1, 1), (1, 1))])
    g = ()
    h = ((0, 1), (0, 1), (1, 1), (0, 1), (1, -1))
    s = ShadowElement(f2, endo, [(twisted_class(f2, endo, g, depth=1), 1),
                                 (twisted_class(f2, endo, h, depth=1), 1)])
    with pytest.raises(IndeterminateError):
        nielsen(s, depth=1)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    endo = z_endo(-1)
    s = ShadowElement(Z, endo, [(twisted_class(Z, endo, (0,)), 1),
                                (twisted_class(Z, endo, (1,)), 2)])
    hom = GroupHomomorphism(Z, Z, [(1,)])
    out = pushforward(hom, endo, endo, (0,), s)
    assert shadow_equal(out, s) == EQUAL


def test_pushforward_product_inclusion():
    z2 = FreeAbelianGroup(2)
    endo_z = z_endo(-1)
    endo_z2 = GroupEndomorphism(z2, [(-1, 0), (0, 1)])
    hom = GroupHomomorphism(Z, z2, [(1, 0)])
    s = ShadowElement(Z, endo_z, [(twisted_class(Z, endo_z, (1,)), 1)])
    out = pushforward(hom, endo_z, endo_z2, (0, 0), s)
    assert augment(out) == 1
    (cls, c), = out.terms.values()
    assert cls.key == twisted_class(z2, endo_z2, (1, 0)).key


def test_pushforward_checks_intertwining():
    endo_src = z_endo(2)
    endo_dst = z_endo(3)
    hom = GroupHomomorphism(Z, Z, [(1,)])
    s = ShadowElement(Z, endo_src, [(twisted_class(Z, endo_src, (0,)), 1)])
    with pytest.raises(GroupError):
        pushforward(hom, endo_src, endo_dst, (0,), s)


def test_pushforward_preserves_augmentation():
    rng = random.Random(17)
    endo = z_endo(-1)
    hom = GroupHomomorphism(Z, Z, [(1,)])
    for _ in range(20):
        terms = [(twisted_class(Z, endo, (rng.randint(-4, 4),)),
                  rng.randint(-3, 3)) for _ in range(3)]
        s = ShadowElement(Z, endo, terms)
        out = pushforward(hom, endo, endo, (2,), s)
        assert augment(out) == augment(s)


# ---------------------------------------------------------------------------
# finite group plumbing
# ---------------------------------------------------------------------------

def test_finite_group_verifies_table():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]], 0)


def test_finite_hom_verified():
    c4 = FiniteGroup.cyclic(4)
    with pytest.raises(GroupError):
        GroupEndomorphism(c4, [0, 1, 3, 2])
    endo = GroupEndomorphism(c4, [0, 2, 0, 2])
    assert endo.apply(3) == 2


def test_finite_twisted_classes():
    s3 = FiniteGroup.symmetric3()
    endo = identity_endomorphism(s3)
    keys = {twisted_class(s3, endo, g).key for g in range(6)}
    assert len(keys) == 3  # conjugacy classes of S3


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def _looped_power(group, g, e):
    """g^e as |e| products: the reference for ``_power``."""
    base = g if e >= 0 else group.inv(g)
    out = group.identity()
    for _ in range(abs(e)):
        out = group.mul(out, base)
    return out


def test_power_matches_repeated_products():
    f2 = FreeGroup(2)
    cases = [(FreeAbelianGroup(0), ()), (FreeAbelianGroup(2), (3, -2)),
             (f2, ()), (f2, ((0, 1), (1, -1))), (f2, ((0, 1), (1, 1), (0, -1))),
             (FiniteGroup.symmetric3(), 3), (FiniteGroup.cyclic(5), 2)]
    for group, g in cases:
        for e in range(-9, 10):
            assert _power(group, g, e) == _looped_power(group, g, e), (g, e)


def test_power_of_a_large_exponent():
    e = 10 ** 6
    z2 = FreeAbelianGroup(2)
    assert _power(z2, (1, -2), e) == (e, -2 * e)
    assert _power(z2, (1, -2), -e) == (-e, 2 * e)
    f2 = FreeGroup(2)
    conj = ((0, 1), (1, 1), (0, -1))  # a b a^-1, whose powers are a b^e a^-1
    assert _power(f2, conj, e) == ((0, 1),) + ((1, 1),) * e + ((0, -1),)
    assert _power(f2, conj, -e) == ((0, 1),) + ((1, -1),) * e + ((0, -1),)
    endo = GroupEndomorphism(z2, [(2, 1), (1, 1)])
    assert endo.apply((e, -e)) == (e, 0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

letters = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                   max_size=8)


@given(letters, letters, letters)
@settings(max_examples=100, deadline=None)
def test_free_group_associative(a, b, c):
    from fixtrace.grouprings import FreeGroup
    f2 = FreeGroup(2)
    x, y, z = f2.check(tuple(a)), f2.check(tuple(b)), f2.check(tuple(c))
    assert f2.mul(f2.mul(x, y), z) == f2.mul(x, f2.mul(y, z))
    assert f2.mul(x, f2.inv(x)) == ()


@given(letters)
@settings(max_examples=100, deadline=None)
def test_reduce_word_idempotent(a):
    w = reduce_word(tuple(a))
    assert reduce_word(w) == w
    for (g, e), (g2, e2) in zip(w, w[1:]):
        assert not (g == g2 and e == -e2)


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=100, deadline=None)
def test_twisted_class_invariant_under_move(g, h):
    group = FreeAbelianGroup(2)
    endo = GroupEndomorphism(group, [(2, 1), (1, 1)])
    moved = group.mul(group.mul(h, g), group.inv(endo.apply(h)))
    assert twisted_class(group, endo, moved).key == twisted_class(group, endo, g).key



def _bfs_ball(group, endo, g, depth):
    """Reference ball: breadth-first search over s * x * phi(s)^-1, each
    product reduced from its whole concatenation."""
    seen, frontier = {g}, [g]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for i in range(group.rank):
                for e in (1, -1):
                    s = ((i, e),)
                    phi_s = reduce_word(expand_word(s, endo.images.__getitem__))
                    y = reduce_word(s + x + invert_word(phi_s))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return seen


@given(letters, letters, letters, letters, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_orbit_walk_matches_breadth_first_ball(a, b, g, h, depth):
    from fixtrace.grouprings import _free_orbit_walk, _twisted_moves
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, [tuple(a), tuple(b)])
    g, h = f2.check(tuple(g)), f2.check(tuple(h))
    ball = _bfs_ball(f2, endo, g, depth)
    assert set(_free_orbit_walk(_twisted_moves(f2, endo), g, depth)) == ball
    if endo.is_identity():
        return  # decided by cyclic words, not by search
    current = g
    while True:
        best = min(_bfs_ball(f2, endo, current, depth),
                   key=lambda w: (len(w), w))
        if best == current:
            break
        current = best
    assert twisted_class(f2, endo, g, depth).key == current
    verdict = classes_equal(f2, endo, g, h, depth)
    if verdict != DISTINCT:
        near = h in _bfs_ball(f2, endo, g, 2 * depth)
        assert verdict == (EQUAL if near else UNKNOWN)


reduced_words = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
    max_size=12).map(lambda w: reduce_word(tuple(w)))


@st.composite
def cancelling_pairs(draw):
    """Two reduced words a and b; in most draws b starts with the inverse
    of a tail of a (all of it or part of it), so the join cancels."""
    a = draw(reduced_words)
    b = draw(reduced_words)
    if a and draw(st.integers(0, 3)):
        k = draw(st.integers(1, len(a)))
        b = reduce_word(invert_word(a[len(a) - k:]) + b)
    return a, b


@given(cancelling_pairs())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_join_reduced_matches_full_reduction(pair):
    a, b = pair
    want = reduce_word(a + b)
    assert join_reduced(a, b) == want
    assert join_reduced(b, a) == reduce_word(b + a)
    assert join_reduced(a, ()) == a and join_reduced((), b) == b
    assert FreeGroup(3).mul(a, b) == want


def test_join_reduced_hand_cases():
    a = ((0, 1), (1, -1), (2, 1))
    assert join_reduced(a, invert_word(a)) == ()
    assert join_reduced(a, invert_word(a[1:]) + ((0, 1),)) == ((0, 1), (0, 1))


@st.composite
def free_endomorphisms(draw):
    """A random endomorphism of F_2 or F_3 (identity included) and a word."""
    rank = draw(st.sampled_from((2, 3)))
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    images = [tuple(draw(st.lists(letter, max_size=4))) for _ in range(rank)]
    g = tuple(draw(st.lists(letter, max_size=8)))
    group = FreeGroup(rank)
    return group, GroupEndomorphism(group, images), group.check(g)


def _assert_branch_and_bound_minimum(group, endo, g, depth):
    from fixtrace.grouprings import (_free_orbit_walk, _shortlex_min_in_ball,
                                     _twisted_moves)
    moves = _twisted_moves(group, endo)
    want = min(_free_orbit_walk(moves, g, depth), key=lambda w: (len(w), w))
    assert _shortlex_min_in_ball(moves, g, depth) == want


# Endomorphisms of F_2 and words whose depth-4 minimum a bound one letter
# per move too weak would cut off.
TIGHT_BOUND_CASES = [
    ([((0, -1), (1, -1)), ((0, 1), (1, 1), (0, 1))], ((1, -1), (0, -1))),
    ([((0, 1), (0, 1)), ((0, -1), (0, -1))],
     ((1, 1), (0, -1), (0, -1), (1, -1), (0, -1))),
    ([((0, -1), (0, -1), (0, -1)), ((0, 1),)], ((0, 1), (0, 1), (1, -1))),
]


@pytest.mark.parametrize("images, g", TIGHT_BOUND_CASES)
def test_branch_and_bound_keeps_minima_that_need_the_full_reach(images, g):
    group = FreeGroup(2)
    _assert_branch_and_bound_minimum(group, GroupEndomorphism(group, images),
                                     g, 4)


@given(free_endomorphisms(), st.integers(0, 4))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_branch_and_bound_minimum_matches_orbit_walk(case, depth):
    _assert_branch_and_bound_minimum(*case, depth)


def reference_cyclic_normal_form(word):
    """The quadratic definition: the least of all rotations of the cyclic
    reduction."""
    from fixtrace.words import cyclic_reduce
    w = cyclic_reduce(word)
    if not w:
        return ()
    return min(w[i:] + w[:i] for i in range(len(w)))


few_letters = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))


@st.composite
def rotation_words(draw):
    """Random words of length 0-60, or a word u repeated k times, whose
    rotations tie."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(few_letters, max_size=60)))
    u = tuple(draw(st.lists(few_letters, min_size=1, max_size=12)))
    return u * draw(st.integers(1, 60 // len(u)))


@given(rotation_words())
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_cyclic_normal_form_matches_all_rotations(word):
    from fixtrace.words import cyclic_normal_form
    assert cyclic_normal_form(word) == reference_cyclic_normal_form(word)
