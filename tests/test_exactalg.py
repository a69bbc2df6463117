import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtrace.exactalg import (
    ChainComplex,
    ChainMap,
    ExactAlgError,
    IntMatrix,
    homology,
    homology_maps,
    hopf_chain_trace,
    lefschetz_from_homology,
    smith_normal_form,
)
from tests.oracles import determinant, identity_chain_map
from tests.tensor_products import tensor_chain_map, tensor_complex


def from_rows(rows):
    """The matrix with these rows."""
    return IntMatrix(len(rows), len(rows[0]) if rows else 0,
                     [x for row in rows for x in row])


def tolists(m):
    """The rows of ``m`` as lists."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


# ---------------------------------------------------------------------------
# Fixtures: small complexes written out by hand
# ---------------------------------------------------------------------------

def triangle_circle():
    # vertices 0,1,2; edges (0,1),(0,2),(1,2)
    d1 = from_rows([
        [-1, -1, 0],
        [1, 0, -1],
        [0, 1, 1],
    ])
    return ChainComplex([3, 3], [d1])


def reflection_map():
    # fix vertex 0, swap 1 <-> 2: edge (0,1)->(0,2), (0,2)->(0,1), (1,2)->-(1,2)
    c = triangle_circle()
    f0 = from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    f1 = from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    return ChainMap(c, c, [f0, f1])


def point_complex():
    return ChainComplex([1], [])


def rp2_complex():
    # minimal 6-vertex triangulation of the projective plane
    # (antipodal quotient of the icosahedron; every edge lies in 2 faces)
    from fixtrace.simplicial import build_complex, chain_complex
    faces = [(0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 5), (3, 4, 5)]
    return chain_complex(build_complex(faces, range(6)))


def degree2_circle_chain_map():
    # 4-vertex circle: edges e0=(0,1), e1=(1,2), e2=(2,3), e3=(0,3)
    d1 = from_rows([
        [-1, 0, 0, -1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, 1],
    ])
    c = ChainComplex([4, 4], [d1])
    # vertex k -> 2k mod 4; each edge sweeps two consecutive edges
    f0 = from_rows([
        [1, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 0],
    ])
    # e0 -> e0+e1, e1 -> e2-e3, e2 -> e0+e1, e3 -> e3-e2 (column per edge)
    f1 = from_rows([
        [1, 0, 1, 0],
        [1, 0, 1, 0],
        [0, 1, 0, -1],
        [0, -1, 0, 1],
    ])
    return ChainMap(c, c, [f0, f1])


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf_diagonal_oracle_2x2(a, b, c, d):
    """Independent oracle: invariant factors of [[a,b],[c,d]] via gcd formulas.

    d1 = gcd of entries, d1*d2 = |det|.
    """
    import math
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    if g == 0:
        return [0, 0]
    if det == 0:
        return [g, 0]
    return [g, det // g]


def test_snf_diag_2_3():
    sf = smith_normal_form(from_rows([[2, 0], [0, 3]]))
    assert sf.diagonal() == [1, 6]
    assert sf.U * from_rows([[2, 0], [0, 3]]) * sf.V == sf.S


def test_snf_zero_matrix():
    a = IntMatrix.zero(2, 3)
    sf = smith_normal_form(a)
    assert sf.S == a
    assert sf.U == IntMatrix.identity(2)
    assert sf.V == IntMatrix.identity(3)


def test_snf_one_by_one():
    sf = smith_normal_form(from_rows([[1]]))
    assert sf.S == from_rows([[1]])


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_snf_2x2_against_gcd_oracle(vals):
    a, b, c, d = vals
    m = from_rows([[a, b], [c, d]])
    sf = smith_normal_form(m)
    assert sf.diagonal() == snf_diagonal_oracle_2x2(a, b, c, d)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_snf_invariants_random(n, m, data):
    entries = data.draw(st.lists(st.integers(-20, 20), min_size=n * m, max_size=n * m))
    a = IntMatrix(n, m, entries)
    sf = smith_normal_form(a)
    assert sf.U * a * sf.V == sf.S
    assert abs(determinant(sf.U)) == 1
    assert abs(determinant(sf.V)) == 1
    diag = sf.diagonal()
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(n):
            for c in range(m):
                if j != i or c != i:
                    if j < len(diag) and c < len(diag) and j == c:
                        continue
                    assert sf.S[j, c] == 0 or j == c
    nonzero = [d for d in diag if d != 0]
    assert diag[:len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


def test_snf_deterministic():
    a = from_rows([[6, 4, 2], [2, 8, 4]])
    s1 = smith_normal_form(a)
    s2 = smith_normal_form(a)
    assert s1.U == s2.U and s1.V == s2.V and s1.S == s2.S


def test_intmatrix_is_immutable():
    a = from_rows([[6, 4, 2], [2, 8, 4]])
    for m in (a, smith_normal_form(a).V, IntMatrix.zero(0, 3)):
        with pytest.raises(AttributeError):
            m.rows = 1


# ---------------------------------------------------------------------------
# Oracle: a dense Smith normal form with the library's pivot rule and the
# same operations in the same order, touching every entry of every row and
# column.  The library kernel skips work that cannot change the result, so
# it must return exactly these five matrices.
# ---------------------------------------------------------------------------

def reference_smith_normal_form(a: IntMatrix) -> SimpleNamespace:
    """Smith normal form with unimodular transforms, as a plain record of
    the five matrices U, S, V, Uinv and Vinv.

    Pivots are chosen by least nonzero absolute value, ties broken by
    lowest row index then lowest column index, so the output is
    deterministic for a given input.
    """
    n, m = a.rows, a.cols
    s = tolists(a)
    u = tolists(IntMatrix.identity(n))
    v = tolists(IntMatrix.identity(m))
    uinv = tolists(IntMatrix.identity(n))
    vinv = tolists(IntMatrix.identity(m))

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]
            for r in uinv:
                r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i != j:
            for r in s:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src; inverse tracks col_src -= c * col_dst
        srow = s[src]
        drow = s[dst]
        for j in range(m):
            drow[j] += c * srow[j]
        usrow = u[src]
        udrow = u[dst]
        for j in range(n):
            udrow[j] += c * usrow[j]
        for r in uinv:
            r[src] -= c * r[dst]

    def add_col(dst, src, c):
        for r in s:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        srow = vinv[dst]
        drow = vinv[src]
        for j in range(m):
            drow[j] -= c * srow[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = s[i][j]
                if x != 0:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if s[t][t] < 0:
            negate_row(t)
        d = s[t][t]
        dirty = False
        for i in range(t + 1, n):
            if s[i][t] != 0:
                q = s[i][t] // d
                add_row(i, t, -q)
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if s[t][j] != 0:
                q = s[t][j] // d
                add_col(j, t, -q)
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot clears its row and column; enforce divisibility
        culprit = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if s[i][j] % d != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(t, culprit, 1)
            continue
        t += 1

    U = from_rows(u) if n else IntMatrix(0, 0, [])
    V = from_rows(v) if m else IntMatrix(0, 0, [])
    Ui = from_rows(uinv) if n else IntMatrix(0, 0, [])
    Vi = from_rows(vinv) if m else IntMatrix(0, 0, [])
    S = from_rows(s) if n and m else IntMatrix.zero(n, m)
    return SimpleNamespace(U=U, S=S, V=V, Uinv=Ui, Vinv=Vi)


SNF_MATRICES = ("U", "S", "V", "Uinv", "Vinv")
TRANSFORMS = ("U", "V", "Uinv", "Vinv")


def assert_same_matrices(got, want, names):
    for name in names:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.rows, x.cols, tolists(x)) == (y.rows, y.cols,
                                                tolists(y)), name


def assert_same_smith_form(a, names=SNF_MATRICES):
    """The five matrices, read in the order ``names``, equal the dense
    reference; the transforms are built when first read."""
    assert_same_matrices(smith_normal_form(a), reference_smith_normal_form(a),
                         names)


SNF_VALUES = (0, 1, -1, 2, -2, 3, 4, -6)


@st.composite
def small_matrices(draw):
    """Shapes 0-8 (empty ones too); entries from a random subset of
    SNF_VALUES, so that some matrices hold no unit and carry torsion."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    pool = draw(st.lists(st.sampled_from(SNF_VALUES), min_size=1, unique=True))
    entries = draw(st.lists(st.sampled_from(pool), min_size=n * m,
                            max_size=n * m))
    return IntMatrix(n, m, entries)


@given(small_matrices(), st.permutations(SNF_MATRICES),
       st.permutations(SNF_MATRICES))
@settings(derandomize=True, max_examples=250, deadline=None)
def test_snf_matches_dense_reference(a, order, transposed_order):
    assert_same_smith_form(a, order)
    assert_same_smith_form(a.transpose(), transposed_order)


@given(small_matrices(), st.lists(st.sampled_from(TRANSFORMS), unique=True))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_snf_transforms_read_after_rank_match_dense_reference(a, names):
    # rank reads S alone and builds no transform; any subset of the
    # transforms read afterwards still equals the dense reference.
    got = smith_normal_form(a)
    want = reference_smith_normal_form(a)
    assert got.rank == sum(1 for i in range(min(a.rows, a.cols))
                           if want.S[i, i])
    assert not any(name in vars(got) for name in TRANSFORMS)
    assert_same_matrices(got, want, names)
    assert_same_matrices(got, want, names)  # cached: same matrices again


def test_snf_matches_dense_reference_on_torus_boundaries():
    from fixtrace import catalog as cat
    from fixtrace.simplicial import chain_complex, product_complex
    for n in (4, 5, 6):
        c = chain_complex(product_complex(cat.circle_complex(n),
                                          cat.circle_complex(n)))
        for d in c.boundaries:
            assert_same_smith_form(d)


def naive_product(a, b):
    return IntMatrix(a.rows, b.cols, [
        sum(a[i, t] * b[t, j] for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)])


@given(small_matrices(), st.integers(0, 8), st.data())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_product_matches_triple_loop(a, cols, data):
    b = IntMatrix(a.cols, cols, data.draw(st.lists(
        st.sampled_from(SNF_VALUES), min_size=a.cols * cols,
        max_size=a.cols * cols)))
    got = a * b
    want = naive_product(a, b)
    assert (got.rows, got.cols, tolists(got)) == (want.rows, want.cols,
                                                  tolists(want))


def same_shape_matrix(a, data):
    return IntMatrix(a.rows, a.cols, data.draw(st.lists(
        st.sampled_from(SNF_VALUES), min_size=a.rows * a.cols,
        max_size=a.rows * a.cols)))


def dense_transpose(a):
    rows = tolists(a)
    return [[rows[i][j] for i in range(a.rows)] for j in range(a.cols)]


@given(small_matrices(), st.data())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_sum_negation_transpose_match_dense(a, data):
    b = same_shape_matrix(a, data)
    ra, rb = tolists(a), tolists(b)
    assert tolists(a + b) == [[x + y for x, y in zip(r, s)]
                              for r, s in zip(ra, rb)]
    assert tolists(a - b) == [[x - y for x, y in zip(r, s)]
                              for r, s in zip(ra, rb)]
    assert tolists(-a) == [[-x for x in r] for r in ra]
    t = a.transpose()
    assert (t.rows, t.cols, tolists(t)) == (a.cols, a.rows,
                                            dense_transpose(a))
    assert a.is_zero() == (not any(map(any, ra)))


@given(small_matrices(), st.data())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_equality_and_hash_match_dense(a, data):
    b = same_shape_matrix(a, data)
    assert (a == b) == (tolists(a) == tolists(b))
    # (a + b) - b drops and re-adds the entries b cancels, in another order
    for same in ((a + b) - b, a.transpose().transpose(),
                 from_rows(tolists(a)) if a.rows else a):
        assert same == a
    assert a != IntMatrix.zero(a.rows, a.cols + 1)


@given(small_matrices())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_cancelling_sum_stores_no_zero(a):
    z = a + (-a)
    assert z == IntMatrix.zero(a.rows, a.cols)
    assert z.is_zero()
    # [a | a] * [I; -I] = a - a: every entry of the product cancels
    m = a.cols
    doubled = IntMatrix(a.rows, 2 * m, [x for r in tolists(a) for x in r + r])
    eye = [int(i == j) for i in range(m) for j in range(m)]
    signs = IntMatrix(2 * m, m, eye + [-x for x in eye])
    p = doubled * signs
    assert p == IntMatrix.zero(a.rows, m)
    assert p.is_zero()


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def test_homology_triangle_circle():
    h = homology(triangle_circle())
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_point():
    h = homology(point_complex())
    assert h.betti == (1,)


def test_homology_rp2():
    h = homology(rp2_complex())
    assert h.betti == (1, 0, 0)
    assert h.torsion[1] == (2,)


def test_homology_rejects_bad_complex():
    d1 = from_rows([[1, 0], [0, 1]])
    d2 = from_rows([[1, 1], [1, 0]])
    with pytest.raises(ExactAlgError):
        ChainComplex([2, 2, 2], [d1, d2])


def test_induced_map_identity():
    m = identity_chain_map(triangle_circle())
    mats = homology_maps(m)
    assert mats == [[[1]], [[1]]]
    assert all(type(x) is int for mat in mats for row in mat for x in row)


def test_induced_map_reflection():
    mats = homology_maps(reflection_map())
    assert sum(mats[0][i][i] for i in range(len(mats[0]))) == 1
    assert sum(mats[1][i][i] for i in range(len(mats[1]))) == -1


def test_induced_map_degree2():
    mats = homology_maps(degree2_circle_chain_map())
    assert sum(mats[0][i][i] for i in range(len(mats[0]))) == 1
    assert sum(mats[1][i][i] for i in range(len(mats[1]))) == 2


def test_lefschetz_identity_circle():
    assert lefschetz_from_homology(identity_chain_map(triangle_circle())) == 0


def test_lefschetz_reflection():
    assert lefschetz_from_homology(reflection_map()) == 2


def test_lefschetz_degree2():
    # one fixed point of z -> z^2 with index sign(1-2) = -1
    assert lefschetz_from_homology(degree2_circle_chain_map()) == -1


def test_hopf_trace_reflection():
    m = reflection_map()
    assert hopf_chain_trace(m) == 2
    assert hopf_chain_trace(m) == lefschetz_from_homology(m)


def test_hopf_trace_identity():
    m = identity_chain_map(triangle_circle())
    assert hopf_chain_trace(m) == 0


# ---------------------------------------------------------------------------
# Induced maps between different complexes
# ---------------------------------------------------------------------------

def _maps_between_complexes():
    """Simplicial maps C6 -> C3 -> figure eight -> C3 and C3 <-> C3 x C3."""
    from fixtrace import catalog as cat
    from fixtrace.simplicial import SimplicialMap, product_complex
    c6, c3 = cat.circle_complex(6), cat.circle_complex(3)
    eight = cat.figure_eight_complex()
    torus = product_complex(c3, c3)
    return {
        "wrap": SimplicialMap(c6, c3, {str(i): str(i % 3) for i in range(6)}),
        "include": SimplicialMap(c3, eight, {v: v for v in c3.vertices}),
        # the second loop 0-3-4 goes to the vertex 0
        "collapse": SimplicialMap(eight, c3, {v: v if v in "012" else "0"
                                              for v in eight.vertices}),
        "project": SimplicialMap(torus, c3, {v: v[0] for v in torus.vertices}),
        "diagonal": SimplicialMap(c3, torus, {v: (v, v) for v in c3.vertices}),
    }


def _homology_matrices(f, degrees=3):
    """The induced maps of a simplicial map in degrees 0..degrees-1, as
    matrices shaped by the betti numbers that ``homology`` computes on
    each side (0 x 0 past the top degree of both)."""
    from fixtrace.simplicial import induced_chain_map
    m = induced_chain_map(f)
    blocks = homology_maps(m)
    src, tgt = homology(m.source).betti, homology(m.target).betti
    out = []
    for i in range(degrees):
        block = blocks[i] if i < len(blocks) else []
        rows = tgt[i] if i < len(tgt) else 0
        cols = src[i] if i < len(src) else 0
        out.append(IntMatrix(rows, cols, [x for r in block for x in r]))
    return out


@pytest.mark.parametrize("path", [
    ("wrap", "include"), ("include", "collapse"),
    ("wrap", "include", "collapse"), ("diagonal", "project"),
    ("project", "diagonal"), ("project", "include"), ("wrap", "diagonal"),
], ids="-".join)
def test_homology_maps_between_complexes_are_functorial(path):
    # h(g . f) = h(g) h(f) in every degree: each complex keeps one basis,
    # so this holds whatever basis is chosen.
    maps = _maps_between_complexes()
    composite = maps[path[0]]
    product = _homology_matrices(composite)
    for name in path[1:]:
        composite = maps[name].compose(composite)
        product = [g * f for g, f in zip(_homology_matrices(maps[name]),
                                         product)]
    assert _homology_matrices(composite) == product


def test_homology_maps_between_complexes_values():
    maps = _maps_between_complexes()
    h = {name: _homology_matrices(f) for name, f in maps.items()}
    # wrapping C6 twice around C3 has degree 2 on H_1 (H_2 is 0 x 0)
    assert [abs(determinant(m)) for m in h["wrap"]] == [1, 2, 1]
    # the first loop of the figure eight is a direct summand of its H_1 and
    # the collapse retracts onto it; the diagonal is a section of the
    # projection
    for retract, section in (("collapse", "include"),
                             ("project", "diagonal")):
        for r, s in zip(h[retract], h[section]):
            assert r * s == IntMatrix.identity(r.rows)
    assert [(m.rows, m.cols) for m in h["diagonal"]] == [(1, 1), (2, 1),
                                                         (1, 0)]
    assert [(m.rows, m.cols) for m in h["collapse"]] == [(1, 1), (1, 2),
                                                         (0, 0)]


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

def test_tensor_point_point():
    m = identity_chain_map(point_complex())
    t = tensor_chain_map(m, m)
    assert t.source.degrees == (1,)
    assert homology(t.source).betti == (1,)


def test_tensor_circle_point_unit_law():
    t = tensor_complex(triangle_circle(), point_complex())
    assert homology(t).betti == (1, 1)


def test_tensor_circle_circle_torus_homology():
    t = tensor_complex(triangle_circle(), triangle_circle())
    h = homology(t)
    assert h.betti == (1, 2, 1)
    assert sum((-1) ** i * d for i, d in enumerate(t.degrees)) == 0


def test_tensor_lefschetz_multiplicative():
    maps = [identity_chain_map(triangle_circle()), reflection_map(),
            degree2_circle_chain_map(), identity_chain_map(point_complex())]
    for m1 in maps:
        for m2 in maps:
            t = tensor_chain_map(m1, m2)
            assert lefschetz_from_homology(t) == (
                lefschetz_from_homology(m1) * lefschetz_from_homology(m2))
            assert hopf_chain_trace(t) == (
                hopf_chain_trace(m1) * hopf_chain_trace(m2))


# ---------------------------------------------------------------------------
# Basis independence
# ---------------------------------------------------------------------------

def _random_unimodular(n, rng):
    m = tolists(IntMatrix.identity(n))
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return from_rows(m)


def test_trace_basis_independent():
    rng = random.Random(7)
    m = reflection_map()
    c = m.source
    for _ in range(10):
        p0 = _random_unimodular(c.rank(0), rng)
        p1 = _random_unimodular(c.rank(1), rng)
        # U p V = I for unimodular p, so p^-1 = V U
        q0, q1 = [sf.V * sf.U for sf in map(smith_normal_form, (p0, p1))]
        assert q0 * p0 == IntMatrix.identity(c.rank(0))
        assert q1 * p1 == IntMatrix.identity(c.rank(1))
        d1 = p0 * c.boundary(1) * q1
        cc = ChainComplex([3, 3], [d1])
        f0 = p0 * m.component(0) * q0
        f1 = p1 * m.component(1) * q1
        mm = ChainMap(cc, cc, [f0, f1])
        assert hopf_chain_trace(mm) == hopf_chain_trace(m)
        assert lefschetz_from_homology(mm) == lefschetz_from_homology(m)
