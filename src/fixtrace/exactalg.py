"""Exact integer and rational linear algebra for chain complexes.

Everything here is computed with arbitrary-precision integers or
`fractions.Fraction`; no floating point is used anywhere.  The module
provides Smith normal form with transformation matrices, chain complexes
over the integers, chain maps, integral homology (betti numbers and
torsion coefficients), induced maps on rational homology, and the two
trace computations (chain level and homology level) whose agreement is
the Hopf trace theorem.

Conventions
-----------
Matrices act on column vectors: a boundary operator from degree i to
degree i-1 is an (n_{i-1} x n_i) matrix, and a chain map component in
degree i composes as target_boundary * f_i = f_{i-1} * source_boundary.

The homology basis in degree i is chosen deterministically: the kernel
of the i-th boundary is spanned by the kernel columns of the V matrix of
its Smith decomposition, the image of the (i+1)-st boundary is expressed
in those kernel coordinates, and the Smith decomposition of that
coordinate matrix splits off a complement on which induced maps are
reported.  Only traces of the induced matrices are contractual; the
basis itself is fixed so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple


class ExactAlgError(ValueError):
    """Raised for malformed matrices, complexes or chain maps."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Immutable dense integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if rows < 0 or cols < 0:
            raise ExactAlgError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ExactAlgError(
                f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ExactAlgError("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def tolists(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.tolists()})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ExactAlgError("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactAlgError("shape mismatch in multiplication")
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    obase = t * m
                    rbase = i * m
                    for j in range(m):
                        out[rbase + j] += a * other.entries[obase + j]
        return IntMatrix(n, m, out)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def determinant(self) -> int:
        """Fraction-free (Bareiss) determinant; square matrices only."""
        if self.rows != self.cols:
            raise ExactAlgError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.tolists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U * A * V = S with U, V unimodular and S diagonal.

    The diagonal of S is nonnegative and each entry divides the next.
    The exact inverses of U and V are tracked during the reduction.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    Vinv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(self.S.rows, self.S.cols))
                   if self.S[i, i] != 0)

    def diagonal(self) -> List[int]:
        return [self.S[i, i] for i in range(min(self.S.rows, self.S.cols))]


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms.

    Pivots are chosen by least nonzero absolute value, ties broken by
    lowest row index then lowest column index, so the output is
    deterministic for a given input.
    """
    n, m = a.rows, a.cols
    s = a.tolists()
    u = IntMatrix.identity(n).tolists()
    v = IntMatrix.identity(m).tolists()
    uinv = IntMatrix.identity(n).tolists()
    vinv = IntMatrix.identity(m).tolists()

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

    U = IntMatrix.from_rows(u) if n else IntMatrix(0, 0, [])
    V = IntMatrix.from_rows(v) if m else IntMatrix(0, 0, [])
    Ui = IntMatrix.from_rows(uinv) if n else IntMatrix(0, 0, [])
    Vi = IntMatrix.from_rows(vinv) if m else IntMatrix(0, 0, [])
    S = IntMatrix.from_rows(s) if n and m else IntMatrix.zero(n, m)
    return SmithForm(U=U, S=S, V=V, Uinv=Ui, Vinv=Vi)


def rank(a: IntMatrix) -> int:
    return smith_normal_form(a).rank


# ---------------------------------------------------------------------------
# Rational helpers (Fraction matrices as list-of-lists)
# ---------------------------------------------------------------------------

def frac_identity(n: int) -> List[List[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def frac_trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


# ---------------------------------------------------------------------------
# Chain complexes and chain maps
# ---------------------------------------------------------------------------

class ChainComplex:
    """Nonnegatively graded complex of free abelian groups.

    ``degrees[i]`` is the rank in degree i; ``boundaries[i-1]`` is the
    boundary from degree i to degree i-1 as an (n_{i-1} x n_i) matrix.
    """

    def __init__(self, degrees: Sequence[int], boundaries: Sequence[IntMatrix]):
        self.degrees = tuple(int(d) for d in degrees)
        self.boundaries = tuple(boundaries)
        if any(d < 0 for d in self.degrees):
            raise ExactAlgError("negative rank")
        if len(self.boundaries) != max(len(self.degrees) - 1, 0):
            raise ExactAlgError("need one boundary per positive degree")
        for i, b in enumerate(self.boundaries, start=1):
            if b.rows != self.degrees[i - 1] or b.cols != self.degrees[i]:
                raise ExactAlgError(f"boundary {i} has shape {b.rows}x{b.cols}, "
                                    f"expected {self.degrees[i-1]}x{self.degrees[i]}")
        if not self.boundary_squares_to_zero():
            raise ExactAlgError("boundary composite is nonzero")

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    def rank(self, i: int) -> int:
        if 0 <= i < len(self.degrees):
            return self.degrees[i]
        return 0

    def boundary(self, i: int) -> IntMatrix:
        """Boundary from degree i to degree i-1 (zero matrix off range)."""
        if 1 <= i <= self.top_degree:
            return self.boundaries[i - 1]
        return IntMatrix.zero(self.rank(i - 1), self.rank(i))

    def boundary_squares_to_zero(self) -> bool:
        return all((self.boundary(i) * self.boundary(i + 1)).is_zero()
                   for i in range(1, self.top_degree + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * d for i, d in enumerate(self.degrees))

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.degrees == other.degrees
                and self.boundaries == other.boundaries)

    def __repr__(self):
        return f"ChainComplex(degrees={self.degrees})"


class ChainMap:
    """Degreewise map of chain complexes commuting with the boundaries."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Sequence[IntMatrix], check: bool = True):
        self.source = source
        self.target = target
        self.components = tuple(components)
        top = max(source.top_degree, target.top_degree)
        if len(self.components) != top + 1:
            raise ExactAlgError("need one component per degree")
        for i, f in enumerate(self.components):
            if f.rows != target.rank(i) or f.cols != source.rank(i):
                raise ExactAlgError(f"component {i} has wrong shape")
        if check:
            for i in range(1, top + 1):
                lhs = self.target.boundary(i) * self.component(i)
                rhs = self.component(i - 1) * self.source.boundary(i)
                if lhs != rhs:
                    raise ExactAlgError(
                        f"chain map does not commute with boundary in degree {i}")

    def component(self, i: int) -> IntMatrix:
        if 0 <= i < len(self.components):
            return self.components[i]
        return IntMatrix.zero(self.target.rank(i), self.source.rank(i))

    def is_endomorphism(self) -> bool:
        return self.source == self.target

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target != self.source:
            raise ExactAlgError("composition shape mismatch")
        top = max(len(self.components), len(other.components))
        comps = [self.component(i) * other.component(i) for i in range(top)]
        return ChainMap(other.source, self.target, comps, check=False)

    def __repr__(self):
        return f"ChainMap(degrees={self.source.degrees}->{self.target.degrees})"


def identity_chain_map(c: ChainComplex) -> ChainMap:
    comps = [IntMatrix.identity(c.rank(i)) for i in range(c.top_degree + 1)]
    return ChainMap(c, c, comps, check=False)


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyBasis:
    """Deterministic basis data for H_i of a complex.

    ``kernel``: integer matrix whose columns span ker(boundary_i) as a
    direct summand of the chain group.
    ``coord_change``: unimodular W so that in the basis kernel * W^{-1}
    the image of boundary_{i+1} is spanned by multiples of the first
    ``image_rank`` vectors.  The remaining vectors represent H_i.
    """

    kernel: IntMatrix
    coord_change: IntMatrix
    coord_change_inv: IntMatrix
    image_rank: int
    boundary_snf: "SmithForm"

    @property
    def betti(self) -> int:
        return self.kernel.cols - self.image_rank


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers and torsion coefficients per degree."""

    betti: Tuple[int, ...]
    torsion: Tuple[Tuple[int, ...], ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


def _kernel_coordinates(snf_i: SmithForm, mat: IntMatrix) -> IntMatrix:
    """Coordinates of columns lying in ker(d_i), via the tracked V inverse.

    A column c in the kernel satisfies c = V y with the first rank(d_i)
    entries of y zero, so y = Vinv c and the kernel coordinates are the
    trailing entries.
    """
    r = snf_i.rank
    y = snf_i.Vinv * mat
    for row in range(r):
        for col in range(mat.cols):
            if y[row, col] != 0:
                raise ExactAlgError("columns do not lie in the kernel lattice")
    n = snf_i.Vinv.rows
    return IntMatrix(n - r, mat.cols,
                     [y[row, col] for row in range(r, n)
                      for col in range(mat.cols)])


def _homology_basis(c: ChainComplex, i: int) -> HomologyBasis:
    d_i = c.boundary(i)
    snf_i = smith_normal_form(d_i)
    r = snf_i.rank
    n = c.rank(i)
    # kernel columns: columns of V past the rank
    kernel = IntMatrix(n, n - r,
                       [snf_i.V[row, r + j] for row in range(n)
                        for j in range(n - r)])
    d_next = c.boundary(i + 1)
    m = _kernel_coordinates(snf_i, d_next)
    snf_m = smith_normal_form(m)
    return HomologyBasis(kernel=kernel, coord_change=snf_m.U,
                         coord_change_inv=snf_m.Uinv,
                         image_rank=snf_m.rank, boundary_snf=snf_i)


def homology(c: ChainComplex) -> HomologySummary:
    """Integral homology: betti numbers and torsion coefficients.

    betti_i = n_i - rank(d_i) - rank(d_{i+1}); torsion in degree i is the
    list of Smith diagonal entries of d_{i+1} exceeding 1.
    """
    if not c.boundary_squares_to_zero():
        raise ExactAlgError("not a chain complex: boundary squared is nonzero")
    betti = []
    torsion = []
    for i in range(c.top_degree + 1):
        b = c.rank(i) - rank(c.boundary(i)) - rank(c.boundary(i + 1))
        t = tuple(d for d in smith_normal_form(c.boundary(i + 1)).diagonal()
                  if d > 1)
        betti.append(b)
        torsion.append(t)
    return HomologySummary(betti=tuple(betti), torsion=tuple(torsion))


def homology_maps(m: ChainMap) -> List[List[List[Fraction]]]:
    """Matrices of the induced maps on rational homology, per degree.

    Works for maps between different complexes; both sides use the
    deterministic basis from :func:`_homology_basis`.
    """
    top = max(m.source.top_degree, m.target.top_degree)
    out = []
    for i in range(top + 1):
        src = _homology_basis(m.source, i)
        tgt = src if m.source == m.target else _homology_basis(m.target, i)
        hs, ht = src.betti, tgt.betti
        if hs == 0 or ht == 0:
            out.append([[Fraction(0)] * hs for _ in range(ht)])
            continue
        f = m.component(i)
        y = _kernel_coordinates(tgt.boundary_snf, f * src.kernel)
        a = tgt.coord_change * y * src.coord_change_inv
        block = [[Fraction(a[row, col])
                  for col in range(src.image_rank, a.cols)]
                 for row in range(tgt.image_rank, a.rows)]
        out.append(block)
    return out


def induced_homology_map(m: ChainMap) -> List[List[List[Fraction]]]:
    """Induced endomorphism of rational homology, one square matrix per degree.

    Requires a self-map; the matrices are reported in the documented
    deterministic basis, and only their traces are basis-independent.
    """
    if not m.is_endomorphism():
        raise ExactAlgError("induced_homology_map requires source == target")
    return homology_maps(m)


def lefschetz_from_homology(m: ChainMap) -> int:
    """Alternating sum of traces on rational homology."""
    mats = induced_homology_map(m)
    total = Fraction(0)
    for i, mat in enumerate(mats):
        total += (-1) ** i * frac_trace(mat)
    if total.denominator != 1:
        raise ExactAlgError("Lefschetz number is not an integer")
    return int(total)


def hopf_chain_trace(m: ChainMap) -> int:
    """Alternating sum of traces of the chain-level components."""
    if not m.is_endomorphism():
        raise ExactAlgError("hopf_chain_trace requires source == target")
    total = 0
    for i in range(m.source.top_degree + 1):
        f = m.component(i)
        total += (-1) ** i * sum(f[j, j] for j in range(f.rows))
    return total


# ---------------------------------------------------------------------------
# Tensor product of self chain maps
# ---------------------------------------------------------------------------

def _tensor_index(c: ChainComplex, d: ChainComplex):
    """Basis bookkeeping for the total complex of the tensor bicomplex.

    Degree k basis: triples (p, a, b) with p + q = k, a < rank_p(C),
    b < rank_q(D), ordered by p ascending then a then b.
    """
    top = c.top_degree + d.top_degree
    index = []
    offset = []
    for k in range(top + 1):
        idx = {}
        cur = 0
        for p in range(k + 1):
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            if np and nq:
                idx[p] = cur
                cur += np * nq
        index.append(idx)
        offset.append(cur)
    return top, index, offset


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Total complex of C (x) D with boundary d(x) (x) y + (-1)^p x (x) d(y)."""
    top, index, sizes = _tensor_index(c, d)
    degrees = sizes
    boundaries = []
    for k in range(1, top + 1):
        rows = sizes[k - 1]
        cols = sizes[k]
        ent = [0] * (rows * cols)
        for p, base in index[k].items():
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            bp = c.boundary(p)
            bq = d.boundary(q)
            sign = (-1) ** p
            for a in range(np):
                for b in range(nq):
                    col = base + a * nq + b
                    if p - 1 in index[k - 1]:
                        tbase = index[k - 1][p - 1]
                        nq_t = d.rank(q)
                        for a2 in range(c.rank(p - 1)):
                            v = bp[a2, a]
                            if v:
                                row = tbase + a2 * nq_t + b
                                ent[row * cols + col] += v
                    if p in index[k - 1]:
                        tbase = index[k - 1][p]
                        nq_t = d.rank(q - 1)
                        for b2 in range(d.rank(q - 1)):
                            v = bq[b2, b]
                            if v:
                                row = tbase + a * nq_t + b2
                                ent[row * cols + col] += sign * v
        boundaries.append(IntMatrix(rows, cols, ent))
    return ChainComplex(degrees, boundaries)


def tensor_chain_map(m1: ChainMap, m2: ChainMap) -> ChainMap:
    """Self chain map f (x) g on the total complex of the tensor bicomplex."""
    if not (m1.is_endomorphism() and m2.is_endomorphism()):
        raise ExactAlgError("tensor_chain_map requires self maps")
    c, d = m1.source, m2.source
    total = tensor_complex(c, d)
    top, index, sizes = _tensor_index(c, d)
    comps = []
    for k in range(top + 1):
        n = sizes[k]
        ent = [0] * (n * n)
        for p, base in index[k].items():
            q = k - p
            np, nq = c.rank(p), d.rank(q)
            fp = m1.component(p)
            gq = m2.component(q)
            for a in range(np):
                for b in range(nq):
                    col = base + a * nq + b
                    for a2 in range(np):
                        va = fp[a2, a]
                        if not va:
                            continue
                        for b2 in range(nq):
                            vb = gq[b2, b]
                            if vb:
                                row = base + a2 * nq + b2
                                ent[row * n + col] += va * vb
        comps.append(IntMatrix(n, n, ent))
    return ChainMap(total, total, comps)
