"""Exact linear algebra: RREF, kernels, and canonical subspaces.

Everything downstream (series, quotients, homology) reduces to row
reduction over the declared field.  Subspaces are stored only in
reduced-row-echelon canonical form, so subspace equality is structural
equality of the stored rows.

One elimination routine, _echelon_sparse, reduces every row on every
field.  It takes rows held as {column: scalar} dicts, one row at a time,
and returns the canonical rows stored sparse; it stops reading rows once
every column is a pivot.  Over Q it works fraction-free on primitive
integer rows, and Fractions appear only in the returned rows; over GF(p)
the rows are ints mod p, each 1 at its pivot, and are combined in place
with no helper call, since most of the rows it sees are a few entries
long.  Its rows are the wedge relations of schur, the subspaces of L that
_span_canonical and _kernel_canonical take as dicts (the terms of the
lower central series, the centers and Z^(L)), the Zassenhaus rows of
subspace_intersect, and the rows from outside that span() and kernel()
take dense (central product gluing vectors among them), which _coerced
hands on as the dicts of their nonzero coerced entries.  The returned
Subspace keeps the canonical rows sparse.

It is exact; there is no floating point and no modular lifting.
Reduction modulo a subspace is Subspace._residual alone, on sparse rows:
reduce, contains, contains_subspace and the quotients of liealg go
through it, and nothing reduces a dense row.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from numbers import Integral

from .errors import ShapeError
from .field import FieldSpec


# ======================================================================
# elimination cores
# ======================================================================

def _echelon_sparse(field: FieldSpec, ncols: int,
                    rows: Iterable[dict]) -> dict:
    """Canonical RREF of sparse rows over the columns range(ncols), each a
    {column: nonzero scalar} dict with scalars canonical in `field`:
    {pivot: row}, each row 1 at its pivot and absent (0) at every other
    pivot.

    It returns as soon as every one of the ncols columns holds a pivot,
    without reading the rest of `rows`: the RREF is then the identity, and
    no later row can change it.  So a full-rank system, as the exterior
    center of a capable algebra gives, is reduced only up to the row that
    completes the rank.

    Rows are inserted one at a time.  A new row is cleared at the pivots
    already taken, with one combination each: a stored row is 0 at every
    other pivot, so a combination fills no pivot column.  What is left, if
    anything, takes its first column as pivot, and that column is cleared
    from the stored rows.  Those rows are found through an index from each
    column to the stored rows that may be nonzero there (kept by adding a
    row wherever a combination makes it nonzero, so cancelled entries may
    linger), not by a scan of every stored row: rows of a block-diagonal
    input, like the wedge relations of each degree, never meet.  When a
    column becomes a pivot its set is popped and the new row's own pivot
    discarded from it in place; no row is nonzero there again, so the
    entry is not rebuilt.  While no row is stored, the scan for taken
    pivots in a new row is skipped.  The input rows are not modified.

    The order of insertion sets the cost of that back-clearing, not the
    result.  A new pivot left of every stored row's pivot is 0 in all of
    them, since a stored row is 0 left of its own pivot, and nothing is
    cleared; rows that come in decreasing order of their first column
    mostly do so.

    Over GF(p) the rows are ints mod p, kept 1 at their pivots, so a
    combination subtracts a multiple of one row from another in place,
    each entry reduced mod p.  Over Q each row is scaled to a primitive
    integer row (denominators cleared, the gcd of its entries 1) and kept
    so, fraction-free, and _combine makes the combinations; only the
    returned rows are divided by their pivot entries.
    """
    p = field.p  # 0 over Q
    echelon: dict = {}
    # column -> the pivots of the stored rows that may be nonzero there
    holders: defaultdict = defaultdict(set)
    for row in rows:
        if p:
            row = dict(row)
            # a stored row is 1 at its pivot c, so subtracting x = row[c]
            # times it clears c: the difference there is 0 and is dropped
            for c in [c for c in row if c in echelon] if echelon else ():
                x = row[c]
                for k, y in echelon[c].items():
                    if k not in row:
                        # x, y != 0: the new entry is not 0
                        row[k] = -x * y % p
                        continue
                    v = (row[k] - x * y) % p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        else:
            row = _primitive_integers(row)
            for c in [c for c in row if c in echelon] if echelon else ():
                other = echelon[c]
                _combine(row, other[c], row[c], other)
        if not row:
            continue
        piv = min(row)
        x = row[piv]
        if p and x != 1:
            inv = pow(x, -1, p)
            row = {c: y * inv % p for c, y in row.items()}
            x = 1
        for c in row:
            holders[c].add(piv)
        hits = holders.pop(piv)
        hits.discard(piv)
        for q in hits:
            other = echelon[q]
            y = other.get(piv)
            if y is None:
                continue
            if p:
                for k, z in row.items():
                    if k not in other:
                        other[k] = -y * z % p
                        holders[k].add(q)
                        continue
                    v = (other[k] - y * z) % p
                    if v:
                        other[k] = v
                    else:
                        del other[k]
            else:
                for c in _combine(other, x, y, row):
                    holders[c].add(q)
        echelon[piv] = row
        if len(echelon) == ncols:
            break
    if not p:
        echelon = {c: {k: Fraction(y, row[c]) for k, y in row.items()}
                   for c, row in echelon.items()}
    return echelon


def _primitive_integers(row: dict) -> dict:
    """The primitive integer multiple of a sparse row over Q: its
    denominators cleared and the gcd of its entries 1."""
    den = math.lcm(*[x.denominator for x in row.values()])
    out = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    g = math.gcd(*out.values())
    return {c: y // g for c, y in out.items()} if g > 1 else out


def _combine(row: dict, a: int, b: int, other: dict) -> list:
    """row := a * row - b * other in place, on primitive integer rows over
    Q: a and b are first divided by their gcd, the entries that cancel
    are dropped and row is left primitive.  Returns the columns that were
    0 in row before."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    fresh = []
    for c, y in other.items():
        x = row.get(c)
        if x is None:
            # b, y != 0, so the new entry is not 0
            row[c] = -b * y
            fresh.append(c)
            continue
        v = x - b * y
        if v:
            row[c] = v
        else:
            del row[c]
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return fresh


# ======================================================================
# Subspace
# ======================================================================

@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim held in RREF-canonical form.

    `rows` are the canonical RREF rows (no zero rows), each the tuple of its
    (column, nonzero value) pairs by column, `pivots` their pivot columns
    in increasing order.  Construct via span()/kernel()/... — direct
    construction must supply already-canonical rows.
    """

    field: FieldSpec
    ambient_dim: int
    rows: tuple  # tuple[tuple[(int, Scalar), ...], ...]
    pivots: tuple  # tuple[int, ...]
    # the hash, taken on first use: outside equality and repr
    _hash: int = dc_field(default=None, init=False, compare=False,
                          repr=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.field, self.ambient_dim, self.rows, self.pivots))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def basis(self) -> tuple:
        """The canonical rows written dense, ambient_dim scalars each."""
        out = []
        for row in self.rows:
            v = [self.field.zero] * self.ambient_dim
            for c, x in row:
                v[c] = x
            out.append(tuple(v))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def reduce(self, v: Sequence) -> tuple:
        """Residual of v after eliminating this subspace's pivot coordinates,
        its entries coerced into the field first.

        v is in the subspace iff the residual is zero.
        """
        f, n = self.field, self.ambient_dim
        (row,) = _coerced(f, n, [v])
        w = [f.zero] * n
        for c, x in self._residual(row).items():
            w[c] = x
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        """Membership of v, its entries coerced into the field first."""
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        """other <= self: no row of other leaves a residual mod self."""
        self._check_mate(other)
        return not any(map(self._residual, map(dict, other.rows)))

    def _residual(self, w: dict) -> dict:
        """The residual of a sparse row w, a {column: scalar} dict, mod
        this subspace, as a new dict: w minus x times the row at q for each
        pivot q where w holds x.  A canonical row is 0 at every other
        pivot, so one pass clears every pivot, and w lies in the subspace
        exactly when nothing remains."""
        at = dict(zip(self.pivots, self.rows))
        p, zero = self.field.p, self.field.zero  # p is 0 over Q
        out = dict(w)
        for q, x in w.items():
            for k, y in at.get(q, ()):
                v = out.get(k, zero) - x * y
                if p:
                    v %= p
                if v:
                    out[k] = v
                else:
                    del out[k]
        return out

    def _check_mate(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ShapeError("subspaces live in different ambient spaces")

    def __repr__(self) -> str:
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"


def _is_int(x) -> bool:
    """An integer (a numpy one too) that is not a bool: a dimension or a
    basis index."""
    return type(x) is int or (isinstance(x, Integral)
                              and not isinstance(x, bool))


# text and raw bytes iterate as characters or small ints, and a mapping or
# a set as its keys in iteration order: none of them is read as a row
_NOT_A_ROW = (str, bytes, bytearray, memoryview, Mapping, Set)


def _coerced(field: FieldSpec, n: int, rows: Iterable[Sequence]) -> list:
    """Outside rows, coerced into `field` and checked to be sequences of n
    entries, n an int >= 0, each returned as the {column: scalar} dict of
    its nonzero entries.  A str or bytes-like row is refused, not read as
    a sequence of characters or byte values, and so is a mapping or a
    set, not read as its keys.  Every row is checked before any is
    reduced."""
    if not _is_int(n) or n < 0:
        raise ShapeError(f"ambient dimension {n!r} is not an int >= 0")
    out = []
    for row in rows:
        if not isinstance(row, Iterable) or isinstance(row, _NOT_A_ROW):
            raise ShapeError(f"row {row!r} is not a sequence")
        row = tuple(map(field.coerce, row))
        if len(row) != n:
            raise ShapeError(f"row length {len(row)} != {n}")
        out.append({c: x for c, x in enumerate(row) if x})
    return out


def span(field: FieldSpec, ambient_dim: int, rows: Iterable[Sequence]) -> Subspace:
    """The span of dense rows from outside, coerced and shape-checked."""
    return _span_canonical(field, ambient_dim,
                           _coerced(field, ambient_dim, rows))


def _span_canonical(field: FieldSpec, ambient_dim: int,
                    rows: Iterable[dict]) -> Subspace:
    """span() of {column: scalar} dicts with nonzero scalars canonical in
    `field` and columns in range(ambient_dim), as the library builds them
    and _coerced hands them on, so nothing is coerced or checked again.
    They are reduced sparse, and the returned Subspace keeps them so."""
    return _subspace(field, ambient_dim,
                     _echelon_sparse(field, ambient_dim, rows))


def _subspace(field: FieldSpec, n: int, echelon: dict) -> Subspace:
    """The Subspace of field^n whose canonical rows are the sparse rows
    of `echelon`, {pivot: row}."""
    pivots = sorted(echelon)
    return Subspace(field, n, tuple(tuple(sorted(echelon[p].items()))
                                    for p in pivots), tuple(pivots))


def zero_subspace(field: FieldSpec, n: int) -> Subspace:
    return Subspace(field, n, (), ())


def full_subspace(field: FieldSpec, n: int) -> Subspace:
    return coordinate_subspace(field, n, range(n))


def coordinate_subspace(field: FieldSpec, n: int, indices: Iterable[int]) -> Subspace:
    """Span of the standard basis vectors at `indices` (already canonical)."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ShapeError(f"coordinate index out of range for ambient {n}")
    return _subspace(field, n, {i: {i: field.one} for i in idx})


def kernel(field: FieldSpec, ncols: int, rows: Iterable[Sequence]) -> Subspace:
    """Null space {v : row . v = 0 for every row} as a canonical Subspace
    of field^ncols."""
    return _kernel_canonical(field, ncols, _coerced(field, ncols, rows))


def _kernel_canonical(field: FieldSpec, ncols: int,
                      rows: Iterable[dict]) -> Subspace:
    """kernel() for rows the library built itself, as for _span_canonical.

    One reduction with the columns reversed leaves each row nonzero only at
    its pivot and at free columns left of it.  The null vector of a free
    column c is 1 at c and minus the reduced entries at the pivot columns
    right of c; in increasing c these vectors are already the canonical
    basis, with pivots at the free columns, so nothing is reduced again.
    """
    f, n, p = field, ncols, field.p  # p is 0 over Q
    echelon = _echelon_sparse(
        f, n, ({n - 1 - c: x for c, x in row.items()} for row in rows))
    null = {c: {c: f.one} for c in range(n) if n - 1 - c not in echelon}
    for q, row in echelon.items():
        for k, x in row.items():
            if k != q:
                null[n - 1 - k][n - 1 - q] = -x % p if p else -x
    return _subspace(f, n, null)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus block reduction: the reduced rows of
    [a | a] over [b | 0] whose left half vanishes span a cap b.  They are
    the rows with pivots n or more, and their right halves are already
    canonical: each is 1 at its pivot, where every other row is 0."""
    a._check_mate(b)
    f, n = a.field, a.ambient_dim
    stacked = [dict(row + tuple((n + c, x) for c, x in row)) for row in a.rows]
    stacked += map(dict, b.rows)
    echelon = _echelon_sparse(f, 2 * n, stacked)
    return _subspace(f, n, {q - n: {c - n: x for c, x in row.items()}
                            for q, row in echelon.items() if q >= n})
