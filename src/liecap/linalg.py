"""Exact linear algebra: RREF, kernels, and canonical subspaces.

Everything downstream (series, quotients, homology) reduces to row
reduction over the declared field.  Subspaces are stored only in
reduced-row-echelon canonical form, so subspace equality is structural
equality of the stored rows.

Two dense elimination cores sit behind one API, rref_rows:

* over Q, rows are scaled to primitive integer vectors and eliminated with
  fraction-free integer operations (gcd-normalized after every update);
  Fractions reappear only in the final canonical rows;
* over GF(p), rows live in numpy int64 arrays and the column eliminations are
  vectorized.  FieldSpec caps p below 2^31 so residue products fit in int64.

A third routine, _echelon_sparse, needs no numpy: it reduces rows held as
{column: scalar} dicts (ints mod p, or Fractions over Q), one row at a
time, and returns the same canonical rows stored sparse.  The wedge
relations of schur, whose rows have a few nonzeros over many columns, are
reduced only this way.

All three are exact; there is no floating point and no modular lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .field import FieldSpec

Vector = tuple  # tuple[Scalar, ...]


# ======================================================================
# elimination cores
# ======================================================================

def _primitive(row: list) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for i, x in enumerate(row):
            row[i] = x // g


def _rref_int(work: list) -> list:
    """Full RREF on integer rows (in place); returns pivot column list.

    Rows stay integral and primitive; pivot entries are not normalized to 1
    (the caller rescales into the field).
    """
    nrows = len(work)
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if work[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            work[sel], work[r] = work[r], work[sel]
        piv = work[r]
        pv = piv[c]
        for i in range(nrows):
            if i == r:
                continue
            q = work[i][c]
            if q:
                row = work[i]
                work[i] = [pv * x - q * y for x, y in zip(row, piv)]
                _primitive(work[i])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _q_rows_to_int(rows: Iterable[Sequence]) -> list:
    out = []
    for row in rows:
        denom = 1
        for x in row:
            d = x.denominator
            if d != 1:
                denom = denom * d // math.gcd(denom, d)
        irow = ([x.numerator for x in row] if denom == 1 else
                [x.numerator * (denom // x.denominator) for x in row])
        _primitive(irow)
        out.append(irow)
    return out


def _rref_q(rows: Iterable[Sequence]) -> tuple[list, list[int]]:
    """RREF over Q.  Returns (canonical Fraction rows, pivots)."""
    work = _q_rows_to_int(rows)
    pivots = _rref_int(work)
    zero = Fraction(0)
    out = []
    for i, c in enumerate(pivots):
        pv = work[i][c]
        out.append([Fraction(x, pv) if x else zero for x in work[i]])
    return out, pivots


def _rref_gf(rows, p: int) -> tuple[list, list[int]]:
    """RREF over GF(p) via numpy.  Returns (canonical int rows, pivots)."""
    A = np.array(rows, dtype=np.int64)
    nrows, ncols = A.shape
    A %= p
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            A[[r, sel]] = A[[sel, r]]
        inv = pow(int(A[r, c]), -1, p)
        if inv != 1:
            A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        nzr = np.flatnonzero(col)
        if nzr.size:
            A[nzr] = (A[nzr] - np.outer(col[nzr], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r].tolist(), pivots


def rref_rows(field: FieldSpec, rows: Iterable[Sequence]) -> tuple[list, list[int]]:
    """Canonical RREF of raw rows: (the nonzero canonical rows, their
    pivots), one row per pivot."""
    rows = list(rows)
    if not rows:
        return [], []
    if field.is_rationals:
        return _rref_q(rows)
    return _rref_gf(rows, field.p)


def _echelon_sparse(field: FieldSpec, rows: Iterable[dict]) -> dict:
    """Canonical RREF of sparse rows, each a {column: nonzero scalar} dict
    with scalars canonical in `field`: {pivot: row}, each row 1 at its
    pivot and absent (0) at every other pivot.

    Rows are inserted one at a time.  A new row is cleared at the pivots
    already taken, with one subtraction each: a stored row is 0 at every
    other pivot, so a subtraction fills no pivot column.  What is left, if
    anything, is scaled to 1 at its first column, and that column is
    cleared from the stored rows.
    """
    p = field.p  # 0 over Q, where the scalars are Fractions
    echelon: dict = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in echelon]:
            _subtract(row, row[c], echelon[c], p)
        if not row:
            continue
        piv = min(row)
        x = row[piv]
        if x != 1:
            inv = pow(x, -1, p) if p else 1 / x
            row = {c: field.mul(y, inv) for c, y in row.items()}
        for other in echelon.values():
            y = other.get(piv)
            if y is not None:
                _subtract(other, y, row, p)
        echelon[piv] = row
    return echelon


def _subtract(row: dict, x, other: dict, p: int) -> None:
    """row -= x * other in place, over GF(p) (p > 0) or Q (p == 0); the
    entries that cancel are dropped."""
    for c, y in other.items():
        v = row.get(c, 0) - x * y
        if p:
            v %= p
        if v:
            row[c] = v
        else:
            del row[c]


# ======================================================================
# Subspace
# ======================================================================

@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim held in RREF-canonical form.

    `basis` rows are the canonical RREF rows (no zero rows), `pivots` their
    pivot columns in increasing order.  Construct via span()/kernel()/... —
    direct construction must supply already-canonical data.
    """

    field: FieldSpec
    ambient_dim: int
    basis: tuple  # tuple[Vector, ...]
    pivots: tuple  # tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after eliminating this subspace's pivot coordinates.

        v is in the subspace iff the residual is zero.
        """
        if len(v) != self.ambient_dim:
            raise ShapeError(f"vector length {len(v)} != ambient {self.ambient_dim}")
        f = self.field
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c != 0:
                for j in range(p, self.ambient_dim):
                    x = row[j]
                    if x != 0:
                        w[j] = f.sub(w[j], f.mul(c, x))
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        """Membership of v, its entries coerced into the field first."""
        return not any(self.reduce([self.field.coerce(x) for x in v]))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_mate(other)
        if not set(other.pivots) <= set(self.pivots):
            return False
        return not any(any(self.reduce(row)) for row in other.basis)

    def _check_mate(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")

    def __repr__(self) -> str:
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"


def _coerced(field: FieldSpec, n: int, rows: Iterable[Sequence]) -> list:
    """Outside rows, coerced into `field` and checked to have n entries."""
    rows = [tuple(field.coerce(x) for x in row) for row in rows]
    for row in rows:
        if len(row) != n:
            raise ShapeError(f"row length {len(row)} != {n}")
    return rows


def span(field: FieldSpec, ambient_dim: int, rows: Iterable[Sequence]) -> Subspace:
    return _span_canonical(field, ambient_dim,
                           _coerced(field, ambient_dim, rows))


def _span_canonical(field: FieldSpec, ambient_dim: int,
                    rows: Iterable[Sequence]) -> Subspace:
    """span() for rows the library built itself: scalars already canonical
    in `field` and every row of length `ambient_dim`, so nothing is coerced
    or checked again."""
    reduced, pivots = rref_rows(field, rows)
    return Subspace(field, ambient_dim, tuple(map(tuple, reduced)),
                    tuple(pivots))


def zero_subspace(field: FieldSpec, n: int) -> Subspace:
    return Subspace(field, n, (), ())


def full_subspace(field: FieldSpec, n: int) -> Subspace:
    return coordinate_subspace(field, n, range(n))


def coordinate_subspace(field: FieldSpec, n: int, indices: Iterable[int]) -> Subspace:
    """Span of the standard basis vectors at `indices` (already canonical)."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ShapeError(f"coordinate index out of range for ambient {n}")
    basis = []
    for i in idx:
        row = [field.zero] * n
        row[i] = field.one
        basis.append(tuple(row))
    return Subspace(field, n, tuple(basis), tuple(idx))


def kernel(field: FieldSpec, ncols: int, rows: Iterable[Sequence]) -> Subspace:
    """Null space {v : row . v = 0 for every row} as a canonical Subspace
    of field^ncols."""
    return _kernel_canonical(field, ncols, _coerced(field, ncols, rows))


def _kernel_canonical(field: FieldSpec, ncols: int,
                      rows: Iterable[Sequence]) -> Subspace:
    """kernel() for rows the library built itself, as for _span_canonical.

    One reduction with the columns reversed leaves each row nonzero only at
    its pivot and at free columns left of it.  The null vector of a free
    column c is 1 at c and minus the reduced entries at the pivot columns
    right of c; in increasing c these vectors are already the canonical
    basis, with pivots at the free columns, so nothing is reduced again.
    """
    f, n = field, ncols
    rows, pivots = rref_rows(f, [row[::-1] for row in rows])
    pivcols = [n - 1 - p for p in pivots]
    free = sorted(set(range(n)).difference(pivcols))
    basis = []
    for c in free:
        v = [f.zero] * n
        v[c] = f.one
        for row, pc in zip(rows, pivcols):
            x = row[n - 1 - c]
            if x != 0:
                v[pc] = f.neg(x)
        basis.append(tuple(v))
    return Subspace(f, n, tuple(basis), tuple(free))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus block reduction: the reduced rows of
    [a | a] over [b | 0] whose left half vanishes span a cap b."""
    a._check_mate(b)
    f, n = a.field, a.ambient_dim
    zero = [f.zero] * n
    stacked = [list(row) + list(row) for row in a.basis]
    stacked += [list(row) + zero for row in b.basis]
    reduced, _ = rref_rows(f, stacked)
    return _span_canonical(f, n, [r[n:] for r in reduced if not any(r[:n])])


def complement_in(sub: Subspace, ambient: Subspace) -> Subspace:
    """Deterministic complement of `sub` inside `ambient`: the ambient basis
    rows whose pivots avoid sub's pivots.  Requires sub <= ambient."""
    sub._check_mate(ambient)
    if not ambient.contains_subspace(sub):
        raise ShapeError("complement_in: first argument is not inside second")
    taken = set(sub.pivots)
    rows, pivots = [], []
    for row, p in zip(ambient.basis, ambient.pivots):
        if p not in taken:
            rows.append(row)
            pivots.append(p)
    return Subspace(ambient.field, ambient.ambient_dim, tuple(rows), tuple(pivots))
