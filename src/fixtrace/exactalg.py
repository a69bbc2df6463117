"""Exact integer linear algebra for chain complexes.

Everything here is computed with arbitrary-precision integers; no
floating point is used anywhere.  Matrices store only their nonzero
entries, so every operation costs the nonzeros it reads, not rows x
cols.  The module provides Smith normal form with transformation
matrices, by an elimination on those nonzero entries; chain complexes
over the integers, chain maps, integral homology (betti numbers and
torsion coefficients), integer matrices of the induced maps on homology
modulo torsion, and the two trace computations (chain level and homology
level) whose agreement is the Hopf trace theorem.

Conventions
-----------
Matrices act on column vectors: a boundary operator from degree i to
degree i-1 is an (n_{i-1} x n_i) matrix, and a chain map component in
degree i composes as target_boundary * f_i = f_{i-1} * source_boundary.

The homology basis in degree i is chosen deterministically from two
Smith forms, which ``ChainComplex.homology_basis(i)`` keeps:

* U d_i V = S with r = rank(d_i).  The columns of V past the first r
  span ker(d_i) as a direct summand of the chain group; call that
  matrix K.  A cycle c has kernel coordinates y = the rows of Vinv * c
  past the first r (the first r rows are zero), so that c = K y.
* M is d_(i+1) in those kernel coordinates, and W M V' = S' is its Smith
  form, with b = rank(M).  In the basis K * W^-1 of ker(d_i), the image
  of d_(i+1) is spanned by multiples of the first b vectors; the
  remaining K.cols - b vectors represent H_i modulo torsion.

So a chain map f: C -> D induces, in degree i, the block of rows past
b_D and columns past b_C of W_D * (kernel coordinates of f * K_C) *
W_C^-1.  Only traces of the induced matrices are contractual; the basis
itself is fixed so results are reproducible.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

SparseRow = Dict[int, int]  # {column: entry}, nonzero entries only


class ExactAlgError(ValueError):
    """A malformed matrix, complex or chain map: a bug, so no exit code."""


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix:
    """Immutable integer matrix stored as sparse rows.

    Row i is a dict ``{column: entry}`` that holds only the nonzero
    entries of that row; no zero is ever stored, so two matrices are
    equal exactly when their shapes and row dicts are.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        """Matrix from its ``rows * cols`` entries in row-major order."""
        entries = [int(e) for e in entries]
        if rows < 0 or cols < 0:
            raise ExactAlgError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ExactAlgError(
                f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(
            {j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)))

    @classmethod
    def _sparse(cls, rows: int, cols: int,
                data: Sequence[SparseRow]) -> "IntMatrix":
        """Wrap ``rows`` sparse rows built inside the package.

        Skips the validation and coercion of ``__init__``, which is for
        caller data.  The rows must hold nonzero ints at columns below
        ``cols`` and must not be changed afterwards.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(data))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._sparse(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._sparse(rows, cols, [{} for _ in range(rows)])

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        return self._data[i].get(j, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(self._data)})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ExactAlgError("shape mismatch in addition")
        out = []
        for a, b in zip(self._data, other._data):
            r = dict(a)
            _add_scaled(r, 1, b.items())
            out.append(r)
        return IntMatrix._sparse(self.rows, self.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._sparse(self.rows, self.cols, [
            {j: -x for j, x in r.items()} for r in self._data])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactAlgError("shape mismatch in multiplication")
        b = other._data
        out = []
        for a_row in self._data:
            r: SparseRow = {}
            get = r.get
            for t, x in a_row.items():
                for j, y in b[t].items():
                    r[j] = get(j, 0) + x * y
            out.append({j: x for j, x in r.items() if x})
        return IntMatrix._sparse(self.rows, other.cols, out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._sparse(self.cols, self.rows,
                                 _transposed(self._data, self.cols))

    def is_zero(self) -> bool:
        return not any(self._data)


def _add_scaled(row: SparseRow, q: int, items: Iterable[Tuple[int, int]]):
    """row += q * (the sparse row given by ``items``), in place, dropping
    entries that cancel; ``q`` and the entries of ``items`` are nonzero."""
    get = row.get
    for k, x in items:
        y = get(k, 0) + q * x
        if y:
            row[k] = y
        else:
            del row[k]


def _transposed(data: Sequence[SparseRow], cols: int) -> List[SparseRow]:
    out: List[SparseRow] = [{} for _ in range(cols)]
    for i, r in enumerate(data):
        for j, x in r.items():
            out[j][i] = x
    return out


def _replay(n: int, ops: Sequence[tuple], inverse: bool) -> IntMatrix:
    """The n x n identity with the logged row operations applied in order.

    An entry ``(i, j, q)`` adds q times row j to row i, ``(i, j)`` swaps
    rows i and j and ``(i,)`` negates row i.  With ``inverse``, each
    operation E is applied as the transpose of its inverse instead: swaps
    and negations are their own inverse transposes, and the one of
    ``(i, j, q)`` adds -q times row i to row j.
    """
    rows: List[SparseRow] = [{i: 1} for i in range(n)]
    for op in ops:
        if len(op) == 3:
            i, j, q = (op[1], op[0], -op[2]) if inverse else op
            _add_scaled(rows[i], q, rows[j].items())
        elif len(op) == 2:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[op[0]] = {k: -x for k, x in rows[op[0]].items()}
    return IntMatrix._sparse(n, n, rows)


class SmithForm:
    """Decomposition U * A * V = S with U, V unimodular and S diagonal.

    The diagonal of S is nonnegative and each entry divides the next.
    The reduction logs its row operations E_1, E_2, ... and its column
    operations F_1, F_2, ..., so U = ... E_2 E_1 and V = F_1 F_2 ...;
    U, V and their exact inverses are replayed from the logs the first
    time a caller reads them.  A column operation is logged as the row
    operation of its transpose, so V is the transpose of a replay, and so
    is Uinv = E_1^-1 E_2^-1 ..., whose transpose is a replay of the
    inverse transposes.
    """

    def __init__(self, S: IntMatrix, row_ops: List[tuple],
                 col_ops: List[tuple]):
        self.S = S
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self.S.rows, self._row_ops, False)

    @cached_property
    def Uinv(self) -> IntMatrix:
        return _replay(self.S.rows, self._row_ops, True).transpose()

    @cached_property
    def V(self) -> IntMatrix:
        return _replay(self.S.cols, self._col_ops, False).transpose()

    @cached_property
    def Vinv(self) -> IntMatrix:
        return _replay(self.S.cols, self._col_ops, True)

    @cached_property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x)

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
    again.  Each operation is applied to S alone, which is kept as sparse
    rows ``{column: entry}``, and logged for the transforms (see
    :class:`SmithForm`).  Every step reads only nonzero entries:

    * the first row holding a unit gives the pivot (its lowest unit
      column), so the whole block is scanned only when it has no unit;
    * the divisibility scan is skipped when the pivot is 1;
    * a column swap of S is recorded as a renaming of the two columns,
      so it costs nothing per row;
    * clearing column t adds multiples of row t to the rows where column
      t is nonzero, and clearing row t adds multiples of column t to the
      columns where row t is nonzero.
    """
    n, m = a.rows, a.cols
    s = [dict(r) for r in a._data]
    row_ops: List[tuple] = []
    col_ops: List[tuple] = []
    # Column swaps of S are recorded, not carried out: column c of S is
    # stored in its rows under the key key[c], and key k holds column
    # col[k].  The keys are renamed to columns once, at the end.
    key = list(range(m))
    col = list(range(m))

    t = 0
    while True:
        # Rows and columns before t are done: rows t.. are zero left of t.
        pivot = None
        for i in range(t, n):
            units = [col[k] for k, x in s[i].items() if x == 1 or x == -1]
            if units:
                pivot = (i, min(units))
                break
        else:
            pivot = min(((abs(x), i, col[k]) for i in range(t, n)
                         for k, x in s[i].items()), default=None)
            if pivot is not None:
                pivot = pivot[1:]
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            row_ops.append((t, pi))
        if pj != t:
            key[t], key[pj] = key[pj], key[t]
            col[key[t]], col[key[pj]] = t, pj
            col_ops.append((t, pj))
        kt = key[t]
        prow = s[t]
        if prow[kt] < 0:
            s[t] = prow = {k: -x for k, x in prow.items()}
            row_ops.append((t,))
        d = prow[kt]
        dirty = False
        # Clear column t: row_i -= q row_t.
        s_nz = list(prow.items())
        below = [i for i in range(t + 1, n) if kt in s[i]]
        for i in below:
            row = s[i]
            q = row[kt] // d
            if q:
                _add_scaled(row, -q, s_nz)
                row_ops.append((i, t, -q))
            if kt in row:
                dirty = True
        # Clear row t: column_j -= q column_t.  The other keys of row t
        # hold columns past t.
        col_t = [(prow, d)] + [(s[i], s[i][kt]) for i in below if kt in s[i]]
        for k in [k for k in prow if k != kt]:
            q = prow[k] // d
            if q:
                for r, x in col_t:
                    y = r.get(k, 0) - q * x
                    if y:
                        r[k] = y
                    else:
                        del r[k]
                col_ops.append((col[k], t, -q))
            if k in prow:
                dirty = True
        if dirty:
            continue
        # The pivot clears its row and column; enforce divisibility.  Rows
        # below t are now zero in columns up to t, so whole rows are read.
        if d != 1:
            culprit = next((i for i in range(t + 1, n)
                            if any(x % d for x in s[i].values())), None)
            if culprit is not None:
                _add_scaled(prow, 1, s[culprit].items())
                row_ops.append((t, culprit, 1))
                continue
        t += 1

    s = [{col[k]: x for k, x in r.items()} for r in s]
    return SmithForm(IntMatrix._sparse(n, m, s), row_ops, col_ops)


def _snf(d: IntMatrix) -> SmithForm:
    """Smith form of d, or of its transpose when d has more rows than
    columns: the two share their diagonal, and the transpose reduces faster."""
    return smith_normal_form(d.transpose() if d.rows > d.cols else d)


# ---------------------------------------------------------------------------
# Chain complexes and chain maps
# ---------------------------------------------------------------------------

class ChainComplex:
    """Nonnegatively graded complex of free abelian groups.

    ``degrees[i]`` is the rank in degree i; ``boundaries[i-1]`` is the
    boundary from degree i to degree i-1 as an (n_{i-1} x n_i) matrix.
    The constructor verifies d . d = 0; its builders guarantee the counts
    and shapes, and ``IntMatrix.__mul__`` checks each product it forms.
    """

    def __init__(self, degrees: Sequence[int], boundaries: Sequence[IntMatrix]):
        self.degrees = tuple(degrees)
        self.boundaries = tuple(boundaries)
        if not self.boundary_squares_to_zero():
            raise ExactAlgError("boundary composite is nonzero")
        self._bases: Dict[int, Tuple[SmithForm, SmithForm]] = {}

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

    def homology_basis(self, i: int) -> Tuple[SmithForm, SmithForm]:
        """Smith forms of d_i and of d_(i+1) in ker(d_i) coordinates, which
        fix the basis of H_i; built by ``_homology_basis`` once per degree."""
        if i not in self._bases:
            self._bases[i] = _homology_basis(self, i)
        return self._bases[i]

    def boundary_squares_to_zero(self) -> bool:
        return all((self.boundary(i) * self.boundary(i + 1)).is_zero()
                   for i in range(1, self.top_degree + 1))

    def __repr__(self):
        return f"ChainComplex(degrees={self.degrees})"


class ChainMap:
    """Degreewise map of chain complexes commuting with the boundaries, which
    the constructor verifies; its builders guarantee the counts and shapes."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Sequence[IntMatrix]):
        self.source = source
        self.target = target
        self.components = tuple(components)
        for i in range(1, max(source.top_degree, target.top_degree) + 1):
            lhs = self.target.boundary(i) * self.component(i)
            rhs = self.component(i - 1) * self.source.boundary(i)
            if lhs != rhs:
                raise ExactAlgError(
                    f"chain map does not commute with boundary in degree {i}")

    def component(self, i: int) -> IntMatrix:
        return self.components[i]

    def __repr__(self):
        return f"ChainMap(degrees={self.source.degrees}->{self.target.degrees})"


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

class HomologySummary:
    """Betti numbers and torsion coefficients per degree."""

    __slots__ = ("betti", "torsion")

    def __init__(self, betti: Tuple[int, ...],
                 torsion: Tuple[Tuple[int, ...], ...]):
        self.betti = betti
        self.torsion = torsion

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


def _kernel_coordinates(snf_i: SmithForm, mat: IntMatrix) -> IntMatrix:
    """Coordinates of columns lying in ker(d_i), via the Vinv of d_i.

    A column c in the kernel satisfies c = V y with the first rank(d_i)
    entries of y zero, so y = Vinv c and the kernel coordinates are the
    trailing entries.
    """
    r = snf_i.rank
    y = snf_i.Vinv * mat
    if any(y._data[:r]):
        raise ExactAlgError("columns do not lie in the kernel lattice")
    return IntMatrix._sparse(y.rows - r, mat.cols, y._data[r:])


def _homology_basis(c: ChainComplex, i: int) -> Tuple[SmithForm, SmithForm]:
    snf_i = smith_normal_form(c.boundary(i))
    return snf_i, smith_normal_form(
        _kernel_coordinates(snf_i, c.boundary(i + 1)))


def homology(c: ChainComplex) -> HomologySummary:
    """Integral homology: betti numbers and torsion coefficients.

    betti_i = n_i - rank(d_i) - rank(d_{i+1}); torsion in degree i is the
    list of Smith diagonal entries of d_{i+1} exceeding 1.
    """
    betti = []
    torsion = []
    for i in range(c.top_degree + 1):
        low, high = c.boundary(i), c.boundary(i + 1)
        b = c.rank(i) - _snf(low).rank - _snf(high).rank
        t = tuple(d for d in _snf(high).diagonal() if d > 1)
        betti.append(b)
        torsion.append(t)
    return HomologySummary(betti=tuple(betti), torsion=tuple(torsion))


def homology_maps(m: ChainMap) -> List[List[List[int]]]:
    """Integer matrices of the induced maps on homology modulo torsion,
    per degree; their traces are the traces on rational homology.

    Works for maps between different complexes; both sides use the
    deterministic basis of the module docstring, from the Smith forms that
    :meth:`ChainComplex.homology_basis` keeps.
    """
    top = max(m.source.top_degree, m.target.top_degree)
    out = []
    for i in range(top + 1):
        src_d, src_m = m.source.homology_basis(i)
        tgt_d, tgt_m = m.target.homology_basis(i)
        # kernel columns of the source: columns of V past the rank
        r = src_d.rank
        kernel = IntMatrix._sparse(src_d.S.cols, src_m.S.rows, [
            {j - r: x for j, x in row.items() if j >= r}
            for row in src_d.V._data])
        y = _kernel_coordinates(tgt_d, m.component(i) * kernel)
        a = tgt_m.U * y * src_m.Uinv
        # indices rank(M) .. M.rows - 1 span ker(d_i) / im(d_(i+1))
        out.append([[a[row, col] for col in range(src_m.rank, a.cols)]
                    for row in range(tgt_m.rank, a.rows)])
    return out


def lefschetz_from_homology(m: ChainMap) -> int:
    """Alternating sum of traces on rational homology of a self-map."""
    return sum((-1) ** i * sum(mat[j][j] for j in range(len(mat)))
               for i, mat in enumerate(homology_maps(m)))


def hopf_chain_trace(m: ChainMap) -> int:
    """Alternating sum of traces of the chain-level components of a
    self-map."""
    total = 0
    for i in range(m.source.top_degree + 1):
        f = m.component(i)
        total += (-1) ** i * sum(f[j, j] for j in range(f.rows))
    return total
