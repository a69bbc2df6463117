"""Exact integer linear algebra for chain complexes.

Everything here is computed with arbitrary-precision integers; no
floating point is used anywhere.  The module provides Smith normal form
with transformation matrices, by an elimination that touches only
nonzero entries; chain complexes over the integers, chain maps, integral
homology (betti numbers and torsion coefficients), integer matrices of
the induced maps on homology modulo torsion, and the two trace
computations (chain level and homology level) whose agreement is the
Hopf trace theorem.

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
from itertools import chain, compress
from typing import Dict, Iterable, List, Sequence, Tuple


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

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Tuple[int, ...]) -> "IntMatrix":
        """Wrap a tuple of ``rows * cols`` ints computed in this module.

        Skips the validation and coercion of ``__init__``, which is for
        caller data; exact integer arithmetic here already yields ints.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        # The default slot-state restore would go through __setattr__.
        return (IntMatrix, (self.rows, self.cols, self.entries))

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
        return cls._of(n, n, tuple(chain.from_iterable(_identity_rows(n))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

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
        return IntMatrix._of(self.rows, self.cols, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols,
                             tuple(-a for a in self.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactAlgError("shape mismatch in multiplication")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        b_rows = [_nonzeros(b[t * m:(t + 1) * m]) for t in range(k)]
        out = [0] * (n * m)
        for i in range(n):
            rbase = i * m
            for t, x in _nonzeros(a[i * k:(i + 1) * k]):
                for j, y in b_rows[t]:
                    out[rbase + j] += x * y
        return IntMatrix._of(n, m, tuple(out))

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix._of(c, self.rows, tuple(chain.from_iterable(
            self.entries[j::c] for j in range(c))))

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

    The reduction is the classical one: move the pivot to (t, t), clear
    its column by row operations and its row by column operations, and
    repeat until both are clear; then, if some entry of the remaining
    block is not divisible by the pivot, add its row to row t and go
    again.  Work that cannot change the result is skipped:

    * the first row holding a unit gives the pivot (its lowest unit
      column), so the whole block is scanned only when it has no unit,
      and rows already cleared to zero are not scanned again;
    * the divisibility scan is skipped when the pivot is 1;
    * clearing column t touches only the nonzero entries of row t of S
      and U, and clearing row t only the rows of S, and the rows of V,
      where column t is nonzero; neither changes while the others are
      cleared, so their nonzero entries are collected once per pivot.

    ``Uinv`` and ``V`` only see column operations, so they are kept
    transposed, where those are row operations as for ``U`` and ``Vinv``.
    The rows of ``Uinv`` (transposed) and ``Vinv`` that are added into
    row t belong to rows and columns not reduced yet, which are still
    (nearly) unit vectors; these two are kept as sparse rows
    ``{column: entry}``, so each addition costs only their nonzeros.
    """
    n, m = a.rows, a.cols
    s = a.tolists()
    u = _identity_rows(n)
    v_t = _identity_rows(m)
    uinv_t = [{i: 1} for i in range(n)]  # sparse rows {column: entry}
    vinv = [{j: 1} for j in range(m)]

    zero_rows = set()  # rows cleared to zero, which no step changes again
    t = 0
    while True:
        # Rows and columns before t are done: rows t.. are zero left of t.
        pivot = None
        for i in range(t, n):
            if i in zero_rows:
                continue
            row = s[i]
            units = [row.index(x) for x in (1, -1) if x in row]
            if units:
                pivot = (i, min(units))
                break
        else:
            best = None
            for i in range(t, n):
                for j, x in enumerate(s[i]):
                    if x and (best is None or abs(x) < best):
                        best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            if t in zero_rows:
                zero_rows.remove(t)
                zero_rows.add(pi)
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
            uinv_t[t], uinv_t[pi] = uinv_t[pi], uinv_t[t]
        if pj != t:
            for r in s[t:]:
                r[t], r[pj] = r[pj], r[t]
            v_t[t], v_t[pj] = v_t[pj], v_t[t]
            vinv[t], vinv[pj] = vinv[pj], vinv[t]
        prow = s[t]
        if prow[t] < 0:
            s[t] = prow = [-x for x in prow]
            u[t] = [-x for x in u[t]]
            uinv_t[t] = {k: -x for k, x in uinv_t[t].items()}
        d = prow[t]
        dirty = False
        # Clear column t: row_i -= q row_t, and column t of Uinv gains
        # q times column i.
        s_nz = _nonzeros(prow)
        u_nz = _nonzeros(u[t])
        ut = uinv_t[t]
        below = [i for i in range(t + 1, n) if s[i][t]]
        for i in below:
            row = s[i]
            q = row[t] // d
            if q:
                for j, x in s_nz:
                    row[j] -= q * x
                urow = u[i]
                for j, x in u_nz:
                    urow[j] -= q * x
                for k, x in uinv_t[i].items():
                    ut[k] = ut.get(k, 0) + q * x
            if row[t]:
                dirty = True
            elif not any(row):
                zero_rows.add(i)
        # Clear row t: column_j -= q column_t, and row t of Vinv gains
        # q times row j.
        col_t = [(prow, d)] + [(s[i], s[i][t]) for i in below if s[i][t]]
        v_nz = _nonzeros(v_t[t])
        vt = vinv[t]
        for j in [j for j in range(t + 1, m) if prow[j]]:
            q = prow[j] // d
            if q:
                for r, x in col_t:
                    r[j] -= q * x
                vrow = v_t[j]
                for k, x in v_nz:
                    vrow[k] -= q * x
                for k, x in vinv[j].items():
                    vt[k] = vt.get(k, 0) + q * x
            if prow[j]:
                dirty = True
        if dirty:
            continue
        # The pivot clears its row and column; enforce divisibility.  Rows
        # below t are now zero in columns up to t, so whole rows are read.
        if d != 1:
            culprit = next((i for i in range(t + 1, n)
                            if any(x % d for x in s[i])), None)
            if culprit is not None:
                # row_t += row_culprit; column culprit of Uinv loses column t
                s[t] = [x + y for x, y in zip(prow, s[culprit])]
                u[t] = [x + y for x, y in zip(u[t], u[culprit])]
                uc = uinv_t[culprit]
                for k, x in uinv_t[t].items():
                    uc[k] = uc.get(k, 0) - x
                continue
        t += 1

    return SmithForm(U=_from_rows(n, n, u), S=_from_rows(n, m, s),
                     V=_from_rows(m, m, zip(*v_t)),
                     Uinv=_from_rows(n, n, zip(*_dense(uinv_t, n))),
                     Vinv=_from_rows(m, m, _dense(vinv, m)))


def _identity_rows(n: int) -> List[List[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def _dense(rows: List[Dict[int, int]], n: int) -> List[List[int]]:
    out = [[0] * n for _ in rows]
    for row, sparse in zip(out, rows):
        for k, x in sparse.items():
            row[k] = x
    return out


def _nonzeros(row: Sequence[int]) -> List[Tuple[int, int]]:
    """(column, entry) for the nonzero entries of ``row``."""
    return [(j, row[j]) for j in compress(range(len(row)), row)]


def _from_rows(rows: int, cols: int, data: Iterable[Sequence[int]]) -> IntMatrix:
    return IntMatrix._of(rows, cols, tuple(chain.from_iterable(data)))


def rank(a: IntMatrix) -> int:
    return smith_normal_form(a).rank


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
        self._bases: Dict[int, HomologyBasis] = {}

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

    def homology_basis(self, i: int) -> "HomologyBasis":
        """Basis data of H_i, built by ``_homology_basis`` once per degree."""
        if i not in self._bases:
            self._bases[i] = _homology_basis(self, i)
        return self._bases[i]

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
    split = r * mat.cols
    if any(y.entries[:split]):
        raise ExactAlgError("columns do not lie in the kernel lattice")
    return IntMatrix._of(y.rows - r, mat.cols, y.entries[split:])


def _homology_basis(c: ChainComplex, i: int) -> HomologyBasis:
    d_i = c.boundary(i)
    snf_i = smith_normal_form(d_i)
    r = snf_i.rank
    n = c.rank(i)
    # kernel columns: columns of V past the rank
    v = snf_i.V.entries
    kernel = IntMatrix._of(n, n - r, tuple(chain.from_iterable(
        v[row * n + r:(row + 1) * n] for row in range(n))))
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
    betti = []
    torsion = []
    for i in range(c.top_degree + 1):
        b = c.rank(i) - rank(c.boundary(i)) - rank(c.boundary(i + 1))
        t = tuple(d for d in smith_normal_form(c.boundary(i + 1)).diagonal()
                  if d > 1)
        betti.append(b)
        torsion.append(t)
    return HomologySummary(betti=tuple(betti), torsion=tuple(torsion))


def homology_maps(m: ChainMap) -> List[List[List[int]]]:
    """Integer matrices of the induced maps on homology modulo torsion,
    per degree; their traces are the traces on rational homology.

    Works for maps between different complexes; both sides use the
    deterministic basis from :func:`_homology_basis`, shared through
    :meth:`ChainComplex.homology_basis`.
    """
    top = max(m.source.top_degree, m.target.top_degree)
    out = []
    for i in range(top + 1):
        src = m.source.homology_basis(i)
        tgt = m.target.homology_basis(i)
        hs, ht = src.betti, tgt.betti
        if hs == 0 or ht == 0:
            out.append([[0] * hs for _ in range(ht)])
            continue
        f = m.component(i)
        y = _kernel_coordinates(tgt.boundary_snf, f * src.kernel)
        a = tgt.coord_change * y * src.coord_change_inv
        block = [[a[row, col]
                  for col in range(src.image_rank, a.cols)]
                 for row in range(tgt.image_rank, a.rows)]
        out.append(block)
    return out


def induced_homology_map(m: ChainMap) -> List[List[List[int]]]:
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
    return sum((-1) ** i * sum(mat[j][j] for j in range(len(mat)))
               for i, mat in enumerate(mats))


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
