"""Finite-dimensional Lie algebras by structure constants, exactly.

A LieAlgebra stores the brackets [e_i, e_j] for i < j as sparse coordinate
dictionaries over a FieldSpec.  All derived objects (series, centers,
quotients, products) are computed with the canonical subspaces from
linalg, so equal inputs give byte-equal outputs.

Indices are 0-based internally; the JSON file format (cli module) is 1-based.
Instances are immutable after construction apart from a private cache of
derived data.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import NotIdealError, NotNilpotentError, ResourceError, ShapeError
from .field import FieldSpec
from .linalg import Subspace

SparseVec = dict  # dict[int, Scalar], no zero values

# The size guard: no algebra of larger dimension is built, and the wedge
# route reduces at most this many columns of Lambda^2 L.
DEFAULT_MAX_DIM = 2000


# ======================================================================
# core type
# ======================================================================

class LieAlgebra:
    """Lie algebra with basis e_0..e_{dim-1} and sparse bracket table.

    `table` maps (i, j) with i < j to {k: coefficient}; omitted pairs bracket
    to zero.  The Jacobi identity is checked by validate(), not assumed.

    `_cache` keeps data derived from the table for the algebra's lifetime.
    Cache keys: `derived`, `center`, `degrees` and `lcs` (here); `wedge`
    (the number of pair columns reduced, dim L ^ L and the generator
    residuals mod J, not J's rows), `exterior_center` and (`bound`, I) per
    central ideal I (schur).
    """

    __slots__ = ("field", "dim", "table", "name", "_cache")

    def __init__(self, field: FieldSpec, dim: int,
                 brackets: Mapping | None = None, name: str = ""):
        if not linalg._is_int(dim) or dim < 0:
            raise ShapeError(f"dimension {dim!r} is not an int >= 0")
        if dim > DEFAULT_MAX_DIM:
            raise ResourceError(f"dimension {dim} is past the size guard "
                                f"{DEFAULT_MAX_DIM}")
        self.field = field
        self.dim = dim = int(dim)
        if brackets is None:
            brackets = {}
        elif not isinstance(brackets, Mapping):
            raise ShapeError(f"brackets {brackets!r} is not a mapping from "
                             f"pairs (i, j) to entries")
        table: dict = {}
        for key, out in brackets.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ShapeError(f"bracket key {key!r} is not a pair "
                                 f"(i, j)") from None
            if not (linalg._is_int(i) and linalg._is_int(j)
                    and 0 <= i < j < dim):
                raise ShapeError(f"bad bracket pair ({i}, {j}) for dim {dim}")
            if isinstance(out, dict):
                items = out.items()
            else:
                try:
                    items = [(k, c) for k, c in (
                        out.items() if isinstance(out, Mapping) else out)]
                except (TypeError, ValueError):
                    raise ShapeError(f"bracket ({i}, {j}) is {out!r}, not a "
                                     f"mapping or (index, value) "
                                     f"pairs") from None
            entry: SparseVec = {}
            # a value is summed only onto an earlier one at the same target,
            # which a dict's distinct keys never give
            for k, c in items:
                if not (linalg._is_int(k) and 0 <= k < dim):
                    raise ShapeError(f"bracket target {k} out of range")
                k, c = int(k), field.coerce(c)
                if c != 0:
                    prev = entry.get(k)
                    if prev is None:
                        entry[k] = c
                    else:
                        c = field.add(prev, c)
                        if c == 0:
                            del entry[k]
                        else:
                            entry[k] = c
            if entry:
                table[(int(i), int(j))] = entry
        self.table = table
        self.name = name
        self._cache: dict = {}

    # --- bracket arithmetic ----------------------------------------------

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        """[e_i, e_j] as a sparse dict (empty means zero)."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        entry = self.table.get((j, i))
        if not entry:
            return {}
        neg = self.field.neg
        return {k: neg(c) for k, c in entry.items()}

    def bracket_sparse(self, x: SparseVec, y: SparseVec) -> SparseVec:
        f = self.field
        acc: SparseVec = {}
        for i, a in x.items():
            for j, b in y.items():
                if i == j:
                    continue
                ab = f.mul(a, b)
                for k, c in self.bracket_basis(i, j).items():
                    v = f.add(acc.get(k, f.zero), f.mul(ab, c))
                    if v == 0:
                        acc.pop(k, None)
                    else:
                        acc[k] = v
        return acc

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] for dense coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("element has wrong length")
        sx = {i: a for i, a in enumerate(x) if a != 0}
        sy = {j: b for j, b in enumerate(y) if b != 0}
        return self._densify(self.bracket_sparse(sx, sy))

    def _densify(self, sv: SparseVec) -> tuple:
        out = [self.field.zero] * self.dim
        for k, c in sv.items():
            out[k] = c
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        if not linalg._is_int(i):
            raise ShapeError(f"basis index {i!r} is not an int")
        if not 0 <= i < self.dim:
            raise ShapeError(f"basis index {i} out of range for dim {self.dim}")
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    # --- validation -------------------------------------------------------

    def validate(self) -> "JacobiReport":
        """Check Jacobi on the basis triples i < j < k.

        The table is read once into ad[a][b] = [e_a, e_b], in both orders.
        A Jacobi sum adds [e_a, [e_b, e_c]] over the three cyclic orders of
        its triple, and such a term is nonzero only if some target t of the
        table entry [e_b, e_c] has [e_a, e_t] != 0.  So only the triples
        listed that way are summed: every other triple sums to 0.

        The sums run on Python ints.  Over Q the table is scaled by the lcm
        D of its denominators as it is read; each Jacobi sum is quadratic
        in the structure constants, so it scales by D^2 and zero stays
        zero.  Over GF(p) a sum is reduced mod p only when it is tested."""
        p = self.field.p  # 0 over Q
        den = 1 if p else math.lcm(*[c.denominator
                                     for entry in self.table.values()
                                     for c in entry.values()])
        ad: list = [{} for _ in range(self.dim)]
        for (a, b), entry in self.table.items():
            if not p:
                entry = {k: c.numerator * (den // c.denominator)
                         for k, c in entry.items()}
            ad[a][b] = entry
            ad[b][a] = {k: -c for k, c in entry.items()}
        triples = set()
        for (b, c), entry in self.table.items():
            for a in set().union(*[ad[t] for t in entry]):
                if a != b and a != c:
                    triples.add(tuple(sorted((a, b, c))))
        violations = []
        for i, j, k in sorted(triples):
            acc: dict = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in ad[b].get(c, {}).items():
                    for u, y in ad[a].get(t, {}).items():
                        acc[u] = acc.get(u, 0) + x * y
            if any(v % p if p else v for v in acc.values()):
                violations.append((i, j, k))
        return JacobiReport(ok=not violations, violations=tuple(violations))

    # --- subspace machinery ----------------------------------------------

    def full_space(self) -> Subspace:
        return linalg.full_subspace(self.field, self.dim)

    def derived_subalgebra(self) -> Subspace:
        """L^2, the span of the table's values."""
        if "derived" not in self._cache:
            self._cache["derived"] = linalg._span_canonical(
                self.field, self.dim, self.table.values())
        return self._cache["derived"]

    def center(self) -> Subspace:
        """Z(L), the kernel of v -> ([v, e_j])_j."""
        if "center" not in self._cache:
            self._cache["center"] = self._center_mod(
                linalg.zero_subspace(self.field, self.dim))
        return self._cache["center"]

    def _center_mod(self, z: Subspace) -> Subspace:
        """{v : [v, e_j] in z for every j}, the kernel of v -> ([v, e_j] mod
        z)_j assembled from the table as sparse rows, one per (j, t): the
        table entry (i, j) puts c = [e_i, e_j]_t mod z in row (j, t) at
        column i and -c in row (i, t) at column j.  A row meets each
        column through one table entry, so nothing is summed."""
        p = self.field.p  # 0 over Q
        rows: dict = {}
        for (i, j), entry in self.table.items():
            if z.rows:
                entry = z._residual(entry)
            for t, c in entry.items():
                rows.setdefault((j, t), {})[i] = c
                rows.setdefault((i, t), {})[j] = -c % p if p else -c
        return linalg._kernel_canonical(self.field, self.dim, rows.values())

    def degrees(self) -> Optional[tuple]:
        """The degree of each basis vector when the basis is standard-graded,
        else None.

        Basis vectors in no bracket's support get degree 1, and every table
        entry (i, j) -> k sets deg k = deg i + deg j.  The basis is
        standard-graded when this gives every vector exactly one degree and
        dim L^2 = #{deg >= 2}.  Then [V_a, V_b] lies in V_{a+b}, L^2 is
        V_{>=2}, so V_k = [V_1, V_{k-1}] for k >= 2 and L^k is the
        coordinate span of {e_i : deg e_i >= k}: L is nilpotent of class
        max deg.
        """
        if "degrees" not in self._cache:
            deg = _table_degrees(self.table, self.dim)
            if deg is not None and self.derived_subalgebra().dim != sum(
                    1 for x in deg if x > 1):
                deg = None
            self._cache["degrees"] = deg
        return self._cache["degrees"]

    def lower_central_series(self) -> tuple:
        """(L^1, L^2, ...) down to 0 or to stabilization, on every basis:
        L^2 is the span of the table's values, and L^(k+1) = [L^k, L] the
        span of [v, e_j] over the canonical rows v of L^k and the j that
        share a table entry with v's support ([v, e_j] = 0 for the rest)."""
        if "lcs" in self._cache:
            return self._cache["lcs"]
        f, n = self.field, self.dim
        partners: list = [set() for _ in range(n)]
        for i, j in self.table:
            partners[i].add(j)
            partners[j].add(i)
        series = [self.full_space()]
        nxt = self.derived_subalgebra()
        while True:
            stable = nxt.dim == series[-1].dim  # above 0: not nilpotent
            series.append(nxt)
            if stable or nxt.is_zero:
                break
            nxt = linalg._span_canonical(f, n, [
                self.bracket_sparse(v, {j: f.one}) for v in map(dict, nxt.rows)
                for j in set().union(*[partners[i] for i in v])])
        self._cache["lcs"] = tuple(series)
        return self._cache["lcs"]

    @property
    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].is_zero

    def nilpotency_class(self) -> int:
        series = self.lower_central_series()
        if not series[-1].is_zero:
            raise NotNilpotentError(
                f"lower central series stabilizes at dim {series[-1].dim}")
        # class c: L^c != 0, L^{c+1} = 0; the zero algebra has class 0
        return len(series) - 1 if self.dim else 0

    def upper_central_series(self) -> tuple:
        """(Z_0 = 0, Z_1 = Z(L), ...) up to L or to stabilization, with
        Z_{i+1} = {v : [v, L] in Z_i}."""
        series = [linalg.zero_subspace(self.field, self.dim)]
        while series[-1].dim < self.dim:
            zi = series[-1]
            nxt = self._center_mod(zi) if zi.rows else self.center()
            series.append(nxt)
            if nxt.dim == zi.dim:
                break  # stabilized below L: not nilpotent
        return tuple(series)

    # --- structural predicates --------------------------------------------

    def structural_profile(self) -> "StructuralProfile":
        derived = self.derived_subalgebra()
        z = self.center()
        nilpotent = self.is_nilpotent
        cls: Optional[int] = self.nilpotency_class() if nilpotent else None
        ghrank: Optional[int] = None
        if not derived.is_zero and derived == z:
            ghrank = derived.dim
        return StructuralProfile(
            is_nilpotent=nilpotent,
            nilpotency_class=cls,
            is_stem=derived.contains_subspace(z),
            gen_heisenberg_rank=ghrank,
            is_maximal_class=(nilpotent and self.dim >= 1
                              and cls == self.dim - 1),
        )

    # --- constructions ----------------------------------------------------

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """L/I.  Basis: standard vectors at I's non-pivot coordinates, in
        index order (the canonical complement rule), with the table's
        entries on two kept indices reduced mod I."""
        if ideal.ambient_dim != self.dim or ideal.field != self.field:
            raise ShapeError("ideal lives in the wrong space")
        for srow in map(dict, ideal.rows):
            for j in range(self.dim):
                img = self.bracket_sparse(srow, {j: self.field.one})
                if ideal._residual(img):
                    raise NotIdealError(
                        f"subspace is not an ideal (fails at basis {j})")
        pivots = set(ideal.pivots)
        keep = [k for k in range(self.dim) if k not in pivots]
        pos = {k: a for a, k in enumerate(keep)}
        brackets: dict = {}
        for (i, j), sv in self.table.items():
            if i in pos and j in pos:
                # the residual is supported on non-pivot coordinates of I
                entry = {pos[k]: c
                         for k, c in sorted(ideal._residual(sv).items())}
                if entry:
                    brackets[(pos[i], pos[j])] = entry
        return LieAlgebra(self.field, len(keep), brackets,
                          name=f"{self.name}/I" if self.name else "")

    def same_table(self, other: "LieAlgebra") -> bool:
        """Structural equality: same field, dim, and bracket table."""
        return (self.field == other.field and self.dim == other.dim
                and self.table == other.table)


def _table_degrees(table: Mapping, n: int) -> Optional[tuple]:
    """Degrees read off a bracket table: 1 for vectors in no bracket's
    support, deg i + deg j for each target of [e_i, e_j].  None when a
    vector gets two degrees or none (as in [e_0, e_1] = e_1)."""
    targets = {k for entry in table.values() for k in entry}
    deg = [None if k in targets else 1 for k in range(n)]
    pending = list(table.items())
    while pending:
        ready = [x for x in pending if deg[x[0][0]] and deg[x[0][1]]]
        if not ready:
            return None
        pending = [x for x in pending if not (deg[x[0][0]] and deg[x[0][1]])]
        for (i, j), entry in ready:
            s = deg[i] + deg[j]
            for k in entry:
                if deg[k] is None:
                    deg[k] = s
                elif deg[k] != s:
                    return None
    return None if None in deg else tuple(deg)


# ======================================================================
# reports and satellite types
# ======================================================================

@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: tuple  # tuple[(i, j, k), ...] 0-based


@dataclass(frozen=True)
class StructuralProfile:
    is_nilpotent: bool
    nilpotency_class: Optional[int]
    is_stem: bool
    gen_heisenberg_rank: Optional[int]
    is_maximal_class: bool


# ======================================================================
# module-level operations
# ======================================================================

def minimal_generators(L: LieAlgebra) -> Subspace:
    """Canonical complement of L^2: standard vectors at its non-pivot
    coordinates.  Spans a minimal generating set for nilpotent L."""
    return linalg.coordinate_subspace(L.field, L.dim, set(range(L.dim))
                                      - set(L.derived_subalgebra().pivots))


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str = "") -> LieAlgebra:
    if a.field != b.field:
        raise ShapeError("direct_sum over different fields")
    brackets: dict = {}
    for (i, j), entry in a.table.items():
        brackets[(i, j)] = dict(entry)
    off = a.dim
    for (i, j), entry in b.table.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in entry.items()}
    return LieAlgebra(a.field, a.dim + b.dim, brackets,
                      name=name or f"{a.name}+{b.name}".strip("+"))


def central_product(a: LieAlgebra, b: LieAlgebra,
                    pairs: Sequence, name: str = "") -> tuple:
    """Glue a and b along central elements: quotient of a (+) b by the span of
    (x_i, -y_i) for each (x_i, y_i) in pairs.  A bare int stands for that
    basis vector.  Returns (product, glue): glue is the canonical ideal of
    a (+) b divided out, so the product's basis is e_k at glue's non-pivot
    coordinates k, and a vector of a (+) b maps to its residual mod glue
    read there, as for any quotient.
    """
    if a.field != b.field:
        raise ShapeError("central_product over different fields")
    f = a.field

    def _vec(alg: LieAlgebra, v):
        if isinstance(v, bool):
            raise ShapeError(f"gluing element {v!r} is a bool, not an index")
        if linalg._is_int(v):
            return alg.basis_vector(int(v))
        if not isinstance(v, Iterable) or isinstance(v, linalg._NOT_A_ROW):
            raise ShapeError(f"gluing element {v!r}: neither index nor vector")
        return tuple(f.coerce(c) for c in v)

    xs, ys = [], []
    for pair in pairs:
        try:
            x, y = pair
        except (TypeError, ValueError):
            raise ShapeError(f"gluing pair {pair!r} is not a pair "
                             f"(x, y)") from None
        xs.append(_vec(a, x))
        ys.append(_vec(b, y))
    za, zb = a.center(), b.center()
    for x in xs:
        if not za.contains(x):
            raise ShapeError("left gluing element is not central")
    for y in ys:
        if not zb.contains(y):
            raise ShapeError("right gluing element is not central")
    if linalg.span(f, a.dim, xs).dim != len(pairs) \
            or linalg.span(f, b.dim, ys).dim != len(pairs):
        raise ShapeError("gluing elements must be linearly independent")
    d = direct_sum(a, b)
    glue = linalg.span(f, d.dim, [list(x) + [f.neg(c) for c in y]
                                  for x, y in zip(xs, ys)])
    prod = d.quotient(glue)
    if name:
        prod.name = name
    return prod, glue


def abelian(field: FieldSpec, n: int, name: str = "") -> LieAlgebra:
    return LieAlgebra(field, n, {}, name=name or f"A({n})")
