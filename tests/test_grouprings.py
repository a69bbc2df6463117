import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtrace.grouprings import (
    DEFAULT_DEPTH,
    DISTINCT,
    EQUAL,
    UNKNOWN,
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
    nielsen,
    pushforward,
    shadow_equal,
    twisted_class,
)
from fixtrace.grouprings import _power, class_label
from fixtrace.words import expand_word, invert_word, join_reduced, reduce_word
from tests.chain_models import twisted_hs_trace, unit_matrix
from tests.oracles import determinant, from_rows, rank1_class_key

Z = FreeAbelianGroup(1)


def z_endo(d):
    return GroupEndomorphism(Z, [(d,)])


def _shadow(group, endo, terms, depth=DEFAULT_DEPTH):
    """The shadow element of the ``(element, coefficient)`` terms."""
    return ShadowElement(group, endo, [
        (twisted_class(group, endo, g, depth), c) for g, c in terms])


# ---------------------------------------------------------------------------
# twisted_class
# ---------------------------------------------------------------------------

def test_twisted_class_identity_on_Z():
    cls = twisted_class(Z, z_endo(1), (5,), DEFAULT_DEPTH)
    assert cls.rep == (5,)
    assert cls.is_certain


def test_twisted_class_reflection_on_Z():
    endo = z_endo(-1)
    keys = {twisted_class(Z, endo, (g,), DEFAULT_DEPTH).key
            for g in range(-6, 7)}
    assert len(keys) == 2
    key = {g: twisted_class(Z, endo, (g,), DEFAULT_DEPTH).key
           for g in (0, 2, 1, -3)}
    assert key[0] == key[2]
    assert key[1] == key[-3]


def test_twisted_class_doubling_on_Z():
    endo = z_endo(2)
    keys = {twisted_class(Z, endo, (g,), DEFAULT_DEPTH).key
            for g in range(-8, 9)}
    assert len(keys) == 1


def test_rank_one_classes_follow_the_residue_rule():
    # F_1 and Z = F_1 abelianized share one class key, the classifier's
    # reduction of the exponent sum; the oracle decides twisted classes of
    # z -> z^d by m mod |1 - d| without a Smith form.  Keys are equal
    # exactly when the oracle puts m and m' in one class, and each rep
    # lies in its element's class.
    f1 = FreeGroup(1)
    for d in range(-5, 6):
        phi_f1 = GroupEndomorphism(f1, [_power(f1, ((0, 1),), d)])
        phi_z = z_endo(d)
        keys = {}
        for m in range(-12, 13):
            c_f1 = twisted_class(f1, phi_f1, _power(f1, ((0, 1),), m), 0)
            c_z = twisted_class(Z, phi_z, (m,), 0)
            assert (c_f1.is_certain, c_z.is_certain) == (True, True)
            assert class_label(c_f1) == class_label(c_z), (d, m)
            assert c_f1.key == c_z.key, (d, m)
            (k_f1,), (k_z,) = f1.abelianized(c_f1.rep), c_z.rep
            assert (rank1_class_key(k_f1, d) == rank1_class_key(k_z, d)
                    == rank1_class_key(m, d)), (d, m)
            keys[m] = c_f1.key
        for m, m2 in itertools.product(keys, repeat=2):
            assert (keys[m] == keys[m2]) == (
                rank1_class_key(m, d) == rank1_class_key(m2, d)), (d, m, m2)


def test_classes_equal_examples():
    # Certain classes need no comparison: their keys decide.
    def key(group, endo, g):
        return twisted_class(group, endo, g, DEFAULT_DEPTH).key

    assert key(Z, z_endo(-1), (0,)) == key(Z, z_endo(-1), (2,))
    assert key(Z, z_endo(-1), (0,)) != key(Z, z_endo(-1), (1,))
    f2 = FreeGroup(2)
    a, b = ((0, 1),), ((1, 1),)
    ident = GroupEndomorphism(f2, f2.generators())
    assert key(f2, ident, a + b) == key(f2, ident, b + a)
    # Heuristic classes (phi swaps a and b): h = a^-1 moves a to phi(a) = b
    # in one step, and the abelianized keys of 1 and a differ.
    swap = GroupEndomorphism(f2, [b, a])
    assert classes_equal(f2, swap, a, b, depth=1) == EQUAL
    assert classes_equal(f2, swap, (), a, DEFAULT_DEPTH) == DISTINCT


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
        det = determinant(m)
        if det == 0:
            continue
        cl = endo.classifier
        assert _class_count(cl) == abs(det)
        reps = _class_reps(cl)
        assert len({twisted_class(g, endo, r, DEFAULT_DEPTH).key
                    for r in reps}) == abs(det)


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
    want = twisted_class(g, endo, base, DEFAULT_DEPTH).key
    for _ in range(50):
        h = (rng.randint(-5, 5), rng.randint(-5, 5))
        moved = g.mul(g.mul(endo.apply(h), base), g.inv(h))
        assert twisted_class(g, endo, moved, DEFAULT_DEPTH).key == want


def test_canonicalization_stability_free_identity():
    rng = random.Random(31)
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, f2.generators())
    base = ((0, 1), (1, 1), (0, -1))
    want = twisted_class(f2, endo, base, DEFAULT_DEPTH).key
    for _ in range(50):
        h = tuple((rng.randrange(2), rng.choice([1, -1])) for _ in range(3))
        moved = f2.mul(f2.mul(endo.apply(h), base), f2.inv(h))
        assert twisted_class(f2, endo, moved, DEFAULT_DEPTH).key == want


def test_free_heuristic_flagged():
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, [((1, 1),), ((0, 1),)])  # swap
    cls = twisted_class(f2, endo, ((0, 1), (1, 1)), DEFAULT_DEPTH)
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
    f2 = FreeGroup(2)
    for group, images in [(Z, [(1,)]), (f2, f2.generators())]:
        endo = GroupEndomorphism(group, images)
        m = unit_matrix(group)
        s = twisted_hs_trace(m, endo)
        assert augment(s) == 1
        assert len(s.terms) == 1


def test_hs_trace_doubling_collapse():
    endo = z_endo(2)
    e = ring_elem(Z, ((0,), 1), ((1,), 1))
    m = from_rows(Z, [[e]])
    s = twisted_hs_trace(m, endo)
    assert augment(s) == 2
    assert len(s.terms) == 1  # both terms land in the single class


def test_hs_trace_zero():
    m = GroupRingMatrix(Z, 2, 2, {})
    s = twisted_hs_trace(m, z_endo(3))
    assert s.is_zero()


def test_matrix_apply_cancels_to_zero():
    # phi sends t to 1, so the entry t - 1 maps to 1 - 1 = 0
    m = from_rows(Z, [[ring_elem(Z, ((1,), 1), ((0,), -1))]])
    assert m.entries
    image = m.apply(z_endo(0))
    assert (image.rows, image.cols, image.entries) == (1, 1, {})


def test_matrix_entry_out_of_range():
    one = ring_elem(Z, ((0,), 1))
    for ij in [(1, 0), (0, 2), (-1, 0)]:
        with pytest.raises(GroupError):
            GroupRingMatrix(Z, 1, 2, {ij: one})
    # zero entries are dropped, not stored
    assert GroupRingMatrix(Z, 1, 2, {(0, 1): GroupRingElement(Z, ())}).entries == {}


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
    return from_rows(group, rows)


def test_shadow_cyclicity_random():
    rng = random.Random(5)
    cases = []
    z2 = FreeAbelianGroup(2)
    cases.append((z2, GroupEndomorphism(z2, [(0, 1), (1, 0)]),
                  [(0, 0), (1, 0), (0, 1), (-1, 2)]))
    cases.append((Z, z_endo(-1), [(0,), (1,), (2,), (-1,)]))
    cases.append((Z, z_endo(3), [(0,), (1,), (-2,)]))
    # free groups whose classes are certain: conjugacy in F_2, and F_1
    # under x -> x^-1
    f2 = FreeGroup(2)
    a, b = ((0, 1),), ((1, 1),)
    cases.append((f2, GroupEndomorphism(f2, f2.generators()),
                  [(), a, b, f2.mul(a, b), f2.mul(b, f2.inv(a))]))
    f1 = FreeGroup(1)
    cases.append((f1, GroupEndomorphism(f1, [f1.inv(a)]),
                  [(), a, f1.inv(a), a + a]))
    count = 0
    for group, endo, elements in cases:
        for _ in range(25):
            n = rng.choice([1, 2])
            a = _random_ring_matrix(group, endo, rng, n, elements)
            b = _random_ring_matrix(group, endo, rng, n, elements)
            lhs = twisted_hs_trace(a * b, endo)
            rhs = twisted_hs_trace(b * a.apply(endo), endo)
            assert shadow_equal(lhs, rhs, DEFAULT_DEPTH) == EQUAL
            count += 1
    assert count >= 100


# ---------------------------------------------------------------------------
# augment / nielsen
# ---------------------------------------------------------------------------

def test_augment_examples():
    endo = z_endo(-1)
    empty = ShadowElement.zero(Z, endo)
    assert augment(empty) == 0
    s = _shadow(Z, endo, [((0,), 1), ((1,), 1)])
    assert augment(s) == 2
    endo3 = z_endo(3)
    s3 = _shadow(Z, endo3, [((0,), -1), ((1,), -1)])
    assert augment(s3) == -2


def test_nielsen_examples():
    endo = z_endo(-1)
    assert nielsen(ShadowElement.zero(Z, endo), DEFAULT_DEPTH) == 0
    s = _shadow(Z, endo, [((0,), 1), ((1,), 1)])
    assert nielsen(s, DEFAULT_DEPTH) == 2
    g2 = FreeAbelianGroup(2)
    endo_a = GroupEndomorphism(g2, [(2, 1), (1, 1)])
    s2 = _shadow(g2, endo_a, [((0, 0), -1)])
    assert nielsen(s2, DEFAULT_DEPTH) == 1


def test_consolidated_merges_equal_classes_with_different_keys():
    # phi: a -> b, b -> a^-1.  h = phi(s) g s^-1 with s = b^-1 a^-1 is
    # twisted conjugate to g = b (two moves apart, so their depth-1 orbit
    # balls meet), yet depth 1 gives them different keys, so consolidation
    # must merge them.
    f2 = FreeGroup(2)
    endo = GroupEndomorphism(f2, [((1, 1),), ((0, -1),)])
    g = ((1, 1),)
    s = ((1, -1), (0, -1))
    h = f2.mul(f2.mul(endo.apply(s), g), f2.inv(s))
    assert h == ((0, 1), (0, 1), (1, 1))
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
    s = _shadow(f2, endo, [(g, 1), (h, 1)], depth=1)
    with pytest.raises(IndeterminateError):
        nielsen(s, depth=1)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    endo = z_endo(-1)
    s = _shadow(Z, endo, [((0,), 1), ((1,), 2)])
    hom = GroupHomomorphism(Z, Z, [(1,)])
    out = pushforward(hom, endo, endo, (0,), s, DEFAULT_DEPTH)
    assert shadow_equal(out, s, DEFAULT_DEPTH) == EQUAL


def test_pushforward_product_inclusion():
    z2 = FreeAbelianGroup(2)
    endo_z = z_endo(-1)
    endo_z2 = GroupEndomorphism(z2, [(-1, 0), (0, 1)])
    hom = GroupHomomorphism(Z, z2, [(1, 0)])
    s = _shadow(Z, endo_z, [((1,), 1)])
    out = pushforward(hom, endo_z, endo_z2, (0, 0), s, DEFAULT_DEPTH)
    assert augment(out) == 1
    (cls, c), = out.terms.values()
    assert cls.key == twisted_class(z2, endo_z2, (1, 0), DEFAULT_DEPTH).key


def test_pushforward_checks_intertwining():
    endo_src = z_endo(2)
    endo_dst = z_endo(3)
    hom = GroupHomomorphism(Z, Z, [(1,)])
    s = _shadow(Z, endo_src, [((0,), 1)])
    with pytest.raises(GroupError):
        pushforward(hom, endo_src, endo_dst, (0,), s, DEFAULT_DEPTH)


def test_pushforward_follows_twisted_conjugacy_over_f2():
    # iota and phi_dst are the identity of F_2 and phi_src is x -> a^-1 x a,
    # so u = a: [1] and [b] go to the conjugacy classes of a and a b, where
    # [iota(g) * u^-1] would give those of a^-1 and b a^-1.
    f2 = FreeGroup(2)
    a, b = ((0, 1),), ((1, 1),)
    ident = GroupEndomorphism(f2, f2.generators())
    conj = GroupEndomorphism(f2, [f2.mul(f2.mul(f2.inv(a), x), a)
                                  for x in f2.generators()])
    hom = GroupHomomorphism(f2, f2, f2.generators())
    s = _shadow(f2, conj, [((), 1), (b, 2)])
    out = pushforward(hom, conj, ident, a, s, DEFAULT_DEPTH)
    assert {cls.key: c for cls, c in out.items()} == {a: 1, a + b: 2}
    with pytest.raises(GroupError):
        pushforward(hom, conj, ident, f2.inv(a), s, DEFAULT_DEPTH)


def test_pushforward_preserves_augmentation():
    rng = random.Random(17)
    endo = z_endo(-1)
    hom = GroupHomomorphism(Z, Z, [(1,)])
    for _ in range(20):
        s = _shadow(Z, endo, [((rng.randint(-4, 4),), rng.randint(-3, 3))
                              for _ in range(3)])
        out = pushforward(hom, endo, endo, (2,), s, DEFAULT_DEPTH)
        assert augment(out) == augment(s)


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
             (f2, ()), (f2, ((0, 1), (1, -1))), (f2, ((0, 1), (1, 1), (0, -1)))]
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
    x, y, z = f2.element(a), f2.element(b), f2.element(c)
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
    moved = group.mul(group.mul(endo.apply(h), g), group.inv(h))
    assert (twisted_class(group, endo, moved, DEFAULT_DEPTH).key
            == twisted_class(group, endo, g, DEFAULT_DEPTH).key)



def _bfs_ball(group, endo, g, depth):
    """Reference ball: breadth-first search over phi(s) * x * s^-1, each
    product reduced from its whole concatenation."""
    seen, frontier = {g}, [g]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for i in range(group.rank):
                for e in (1, -1):
                    s = ((i, e),)
                    phi_s = reduce_word(expand_word(s, endo.images.__getitem__))
                    y = reduce_word(phi_s + x + invert_word(s))
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
    endo = GroupEndomorphism(f2, [f2.element(a), f2.element(b)])
    g, h = f2.element(g), f2.element(h)
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
    group = FreeGroup(rank)
    images = [group.element(draw(st.lists(letter, max_size=4)))
              for _ in range(rank)]
    g = group.element(draw(st.lists(letter, max_size=8)))
    return group, GroupEndomorphism(group, images), g


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
