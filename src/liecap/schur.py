"""The Schur multiplier, the exterior square and the exterior center of a
nilpotent Lie algebra, from the wedge construction.

L ^ L is Lambda^2 L / J with J = im d3, where

    d3(x ^ y ^ z) = [x,y] ^ z + [y,z] ^ x + [z,x] ^ y

(Chevalley-Eilenberg; Ellis), so that

    dim L ^ L = C(n,2) - dim J,     dim M(L) = dim L ^ L - dim L^2.

J is spanned by d3 of the basis triples i < j < k that meet a bracket of
the table, as rows over the basis pairs e_i ^ e_j (i < j) in
lexicographic order.

Degree cut.  When the basis is standard-graded (LieAlgebra.degrees, with
V_k = [V_1, V_{k-1}] for k >= 2), d3 preserves total degree, and every
pair of total degree >= c+2 lies in J, c the class.  Proof: for
homogeneous y, w with deg y + deg w = t >= c+2, induct on deg w.  If
deg w = 1 then deg y = t-1 > c and y = 0.  Otherwise w is a sum of
brackets [u, x] with deg x = 1, and d3(y ^ u ^ x) = [y,u] ^ x + [u,x] ^ y
+ [x,y] ^ u writes y ^ [u, x] mod J as pairs whose second factor has
degree 1 or deg w - 1.
So the columns are the pairs of degree <= c+1 and the rows d3 of the
triples of degree <= c+1, and dim L ^ L = #{pairs of degree <= c+1} -
the rank of those rows.

J is kept sparse from end to end.  A row d3(e_i ^ e_j ^ e_k) has at most
three brackets' worth of nonzeros, so it is built as a {column: scalar}
dict over the pairs, numbered in lexicographic order, and all rows go
into one linalg._echelon_sparse call, whose canonical rows are stored
sparse as {pivot: row}; the rank is the number of pivots.  The rows go
in decreasing triple order: a new pivot then mostly falls left of every
stored row, which is 0 there, so nothing is cleared behind it.  F(7,3)
over GF(2) and F(4,4) over GF(3) update no stored entry this way, and
2150 in increasing order.  Rows of different degrees share no column,
and the echelon's column index never visits a row of another degree.  The
residual of a pair mod J is read off them: minus the row with that
pivot, the pivot entry dropped, when the pair is a pivot, and the pair
itself otherwise, so only a row's nonzero items are read.  The residuals
below are read in the same pass, and J's rows are not kept.  An ungraded
basis runs the same code with every degree 0: no cut.

Exterior center from the generators.  With x_l the basis of
minimal_generators(L),

    Z^(L) = {z : z ^ x_l in J for every l}.

Z^(L) is inside the right side.  Conversely, the commutator map
Lambda^2 L -> L^2, x ^ y -> [x,y], sends J to 0: it takes d3(x ^ y ^ z)
to [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 (Jacobi).  So z ^ x_l in J gives
[z, x_l] = 0 for every l, and z is central, since ad z is a derivation
and the x_l generate L.  For central z, d3(a ^ b ^ z) = [a,b] ^ z puts
z ^ L^2 inside J, and L is span(x_l) + L^2.  That is d*n pairs to
reduce, not n^2.  A generator of a graded basis has degree 1, so every
pair e_t ^ x_l has degree <= c+1 and is a column; none lies past the
cut.

Z^(L) lies in L^2 when d >= 2.  The map Lambda^2 L -> Lambda^2 (L/L^2)
sends each d3 term [x,y] ^ z to 0, since [x,y] is in L^2, so it kills J
(Ellis, J. Pure Appl. Algebra 46, 1987).  So z ^ x_l in J gives
zbar ^ xbar_l = 0 in Lambda^2 (L/L^2) for every l.  The xbar_l are a
basis of L/L^2, and a nonzero zbar has nonzero wedge with one of any two
of them, so zbar = 0.  When d <= 1 the nilpotent L is 0 or a line, and
Z^(L) = L.

One table, res[l][t] = the residual of e_t ^ x_l mod J for each basis
index t and generator x_l, as sparse rows over the pair columns that are
not J pivots (so its width is dim L ^ L), serves both of the answers
below.  Z^(L) is the kernel of z -> (sum_t z_t res[l][t])_l, solved for
z supported on S, the columns of the (column, value) pairs of L^2's
canonical rows: its pivots, and each non-pivot (generator) column where
a row is nonzero, since a row is 0 at every other pivot.  For d >= 2,
Z^(L) lies in L^2, so on S; for d <= 1, S is all of L.  The kernel is
taken in one sparse reduction over the |S| unknowns, with a row per
(l, column of L ^ L), and res[l][t] is read only for t in S.  The rows
are built one generator at a time and handed to the echelon as each
generator's are done, and the echelon stops once all |S| columns are
pivots: Z^(L) is then 0, and no later row can change it.  So a capable
algebra usually leaves its last generators' residuals unread; F(7,3)
over GF(2) has 1421 rows over 133 unknowns and full rank after row 286.
The map from positions in S to the coordinates of L is increasing, so
it keeps a canonical basis canonical, and the null vectors' pairs are
written back at S's indices as they are.  On a basis where L^2 is a
coordinate span, as on a graded one, S is the dim L^2 pivots, so
Z^(L) <= L^2 holds by construction there.  When graded, J and the x_l
are homogeneous, so the rows of z of different degrees share no column
and the echelon's column index keeps them apart.

Central-ideal bound without a quotient.  For an ideal I, Lambda^2 (L/I)
is Lambda^2 L modulo L ^ I = span{x ^ v : v in I}, and J(L/I) is the
image of J, so (L/I)^(L/I) = Lambda^2 L / (J + L ^ I).  That is the
right-exact sequence L ^ I -> L ^ L -> (L/I)^(L/I) -> 0 (Ellis, J. Pure
Appl. Algebra 46, 1987): dim (L/I)^(L/I) = dim L ^ L - r, with r the rank
of L ^ I modulo J.  For central I, d3(a ^ b ^ v) = [a,b] ^ v puts
L^2 ^ I inside J, and L is span(x_l) + L^2, so r is the rank of the
residuals of v ^ x_l mod J over the generators x_l and the rows v of I:
the rows sum_t v_t res[l][t] of the same table, one small sparse
reduction.

Pair layout.  The numbering of the pairs depends on the degree vector
alone (all zeros when ungraded), not on the table or the field, so
_layout keeps it in a bounded lru_cache keyed by that tuple: the cut,
the number of columns, pcol[m][s] = the column of {s, m} (read-only
views, since every such algebra reads them), and the indices in degree
order.  A sweep of algebras with one degree vector, as
the dim-7 class-2 samples all have (1,1,1,1,1,2,2), numbers the pairs
once; d3 and the residual table read columns through pcol and hash no
pair.

Size guard: the columns reduced, the pairs of degree <= c+1 (all C(n,2)
when ungraded), may number at most DEFAULT_MAX_DIM: F(7,3) needs 1162,
H(34) 2346.  They are counted from the degrees' histogram inside
_layout, before any pair is listed; lru_cache keeps no exception, so a
degree vector past the guard raises on every call.  The degrees come
first: a standard-graded basis has class max deg, and only an ungraded
one is checked for nilpotency.  The zero algebra takes the same path,
with no pairs and no generators.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .errors import NotIdealError, NotNilpotentError, ResourceError, ShapeError
from .liealg import DEFAULT_MAX_DIM, LieAlgebra
from .linalg import Subspace, _echelon_sparse, _kernel_canonical


@dataclass(frozen=True)
class HomologyReport:
    dim_M: int
    dim_exterior_square: int
    exterior_center: Subspace
    capable: bool


class DDResult(NamedTuple):
    """Both sides of the central-ideal multiplier bound, plus containment
    of the ideal in the exterior center."""

    lhs: int
    rhs: int
    contained: bool

    @property
    def bound_holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def consistent(self) -> bool:
        return self.bound_holds and (self.lhs == self.rhs) == self.contained


# ======================================================================
# the wedge route
# ======================================================================

class _Wedge(NamedTuple):
    """What the wedge route keeps of J: `ncols` the pairs of degree <= c+1,
    which are the columns reduced, `dim` = dim L ^ L, and `residuals`,
    whose entry l maps each basis index t to the residual of e_t ^ x_l mod
    J, x_l the l-th minimal generator, as (column, value) pairs over the
    dim L ^ L pair columns that are not J pivots.  Only nonzero residuals
    are kept."""

    ncols: int
    dim: int
    residuals: list


@lru_cache(maxsize=32)
def _layout(deg: tuple) -> tuple:
    """The pair columns of a degree vector, all zeros when ungraded:
    (cut, ncols, pcol, order, sorted_deg).  cut = max deg + 1, ncols the
    number of pairs of degree <= cut, pcol[m][s] the column of {s, m} in
    the lexicographic numbering of those pairs, and order the indices
    sorted by degree, whose degrees sorted_deg bisects.  pcol[m] maps only
    the pairs within the cut, so a layout takes 2 * ncols entries, not
    n^2.  Every algebra with this degree vector shares the result, so it
    is immutable: pcol is a tuple of read-only mapping views, and a write
    raises rather than changing the columns of a later algebra.  The size
    guard runs before any pair is listed; lru_cache keeps no exception, so
    it raises on every call."""
    n = len(deg)
    cut = max(deg, default=0) + 1
    count = Counter(deg)
    ncols = sum(count[a] * count[b] for a in count for b in count
                if a < b and a + b <= cut)
    ncols += sum(m * (m - 1) // 2 for a, m in count.items() if 2 * a <= cut)
    if ncols > DEFAULT_MAX_DIM:
        raise ResourceError(
            f"the wedge route would reduce {ncols} columns of "
            f"Lambda^2 L, more than the guard {DEFAULT_MAX_DIM}")
    pcol = [{} for _ in range(n)]
    c = 0
    for i in range(n):
        for j in range(i + 1, n):
            if deg[i] + deg[j] <= cut:
                pcol[i][j] = pcol[j][i] = c
                c += 1
    order = tuple(sorted(range(n), key=deg.__getitem__))
    return (cut, ncols, tuple(map(MappingProxyType, pcol)), order,
            tuple(deg[m] for m in order))


def _wedge(L: LieAlgebra) -> _Wedge:
    """J = im d3 in total degree <= c+1, reduced in one sparse echelon
    and cached on L as a _Wedge, without J's rows.  The class c is max deg
    for a standard-graded basis; an ungraded one is checked for
    nilpotency and runs with every degree 0, where no cut applies.  The
    size guard is checked before anything is built."""
    cached = L._cache.get("wedge")
    if cached is not None:
        return cached
    f, n = L.field, L.dim
    deg = L.degrees()
    if deg is None:
        if not L.is_nilpotent:
            raise NotNilpotentError("homology requires a nilpotent algebra")
        deg = (0,) * n
    cut, ncols, pcol, order, sorted_deg = _layout(deg)
    # d3(e_i ^ e_j ^ e_k) = [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i - [e_i,e_k] ^ e_j
    # for i < j < k: a table entry (a, b), a < b, adds its term to the row
    # of each triple it meets within the cut, negated when the third index
    # m lies between a and b, and e_s ^ e_m = -(e_m ^ e_s).  Index order
    # need not follow degree.  The entries are summed as they are and
    # reduced once.
    zero = f.zero
    sums: dict = {}
    for (a, b), br in L.table.items():
        room = bisect_right(sorted_deg, cut - deg[a] - deg[b])
        for m in order[:room]:
            if m == a or m == b:
                continue
            row = sums.setdefault((m, a, b) if m < a else (a, m, b) if m < b
                                  else (a, b, m), {})
            flip = a < m < b
            at = pcol[m]
            for s, x in br.items():
                if s != m:
                    c = at[s]
                    row[c] = row.get(c, zero) + (-x if (s > m) != flip
                                                 else x)
    p = f.p  # 0 over Q
    rows = [{c: x % p for c, x in row.items() if x % p} if p
            else {c: x for c, x in row.items() if x}
            for row in map(sums.get, sorted(sums, reverse=True))]
    echelon = _echelon_sparse(f, ncols, rows)
    free = {c: i for i, c in enumerate(c for c in range(ncols)
                                       if c not in echelon)}
    minus_one = f.neg(f.one)
    derived = set(L.derived_subalgebra().pivots)
    residuals = []
    # the minimal generators x_l: e_l for l not a pivot of L^2
    for l in range(n):
        if l in derived:
            continue
        per_l = {}
        at = pcol[l]
        for t in range(n):
            if t == l:
                continue
            # e_t ^ e_l = -(e_l ^ e_t); a pivot pair's residual is minus
            # its canonical row, the pivot entry dropped
            q = at[t]
            row = echelon.get(q)
            if row is None:
                per_l[t] = ((free[q], f.one if t < l else minus_one),)
            else:
                res = tuple((free[c], (-x % p if p else -x) if t < l else x)
                            for c, x in row.items() if c != q)
                if res:
                    per_l[t] = res
        residuals.append(per_l)
    cached = _Wedge(ncols, len(free), residuals)
    L._cache["wedge"] = cached
    return cached


def _central_wedge_rank(L: LieAlgebra, I: Subspace) -> int:
    """dim of the image of L ^ I in L ^ L, for a central ideal I: the rank
    of the rows sum_t v_t residuals[l][t], over the rows v of I and the
    generators x_l, built as sparse rows and counted as the pivots of
    their sparse echelon form."""
    f = L.field
    wedge = _wedge(L)
    rows = []
    for v in I.rows:
        for per_l in wedge.residuals:
            row: dict = {}
            for t, x in v:
                for i, y in per_l.get(t, ()):
                    row[i] = f.add(row.get(i, f.zero), f.mul(x, y))
            rows.append({i: y for i, y in row.items() if y})
    return len(_echelon_sparse(f, wedge.dim, rows))


# ======================================================================
# invariants
# ======================================================================

def schur_multiplier_dim(L: LieAlgebra) -> int:
    return exterior_square_dim(L) - L.derived_subalgebra().dim


def exterior_square_dim(L: LieAlgebra) -> int:
    return _wedge(L).dim


def exterior_center(L: LieAlgebra) -> Subspace:
    """{z in L : z wedge x = 0 for every x}, as a subspace of L, cached on
    L: the kernel of z -> (sum_t z_t residuals[l][t])_l, one sparse row
    per (l, column of L ^ L), over the z supported on S, the columns of
    the pairs of L^2's canonical rows (all of L when L has at most one
    generator).  Z^(L) lies in L^2 (module docstring), so on S; only the
    residuals of t in S are read, and the pairs of the null vectors over
    S are written back at S's indices.  The rows are yielded one
    generator at a time, so the residuals of the generators after the row
    that makes the system full rank (Z^(L) = 0) are never read.  _wedge
    comes first, so a non-nilpotent L raises NotNilpotentError."""
    cached = L._cache.get("exterior_center")
    if cached is not None:
        return cached
    f, n = L.field, L.dim
    residuals = _wedge(L).residuals
    if len(residuals) < 2:
        support = range(n)
    else:
        support = sorted({c for row in L.derived_subalgebra().rows
                          for c, _ in row})

    def rows():
        # generator l's rows are whole once its residuals are read, so
        # they go to the echelon before the next generator's are built
        for per_l in residuals:
            by_col: dict = {}
            for a, t in enumerate(support):
                for i, x in per_l.get(t, ()):
                    by_col.setdefault(i, {})[a] = x
            yield from by_col.values()

    inside = _kernel_canonical(f, len(support), rows())
    cached = Subspace(f, n, tuple(tuple((support[a], x) for a, x in row)
                                  for row in inside.rows),
                      tuple(support[a] for a in inside.pivots))
    L._cache["exterior_center"] = cached
    return cached


def is_capable(L: LieAlgebra) -> bool:
    """True exactly when the exterior center vanishes."""
    return exterior_center(L).is_zero


def homology(L: LieAlgebra) -> HomologyReport:
    zc = exterior_center(L)
    return HomologyReport(
        dim_M=schur_multiplier_dim(L),
        dim_exterior_square=exterior_square_dim(L),
        exterior_center=zc,
        capable=zc.is_zero,
    )


def epicenter_test_dd(L: LieAlgebra, I: Subspace) -> DDResult:
    """Compare dim M(L) with dim M(L/I) - dim(L^2 cap I) for a central
    ideal I, and report whether I sits inside the exterior center.  The
    projection maps L^2 onto (L/I)^2 with kernel L^2 cap I, so the right
    side is dim (L/I)^(L/I) - dim (L/I)^2 - (dim L^2 - dim (L/I)^2),
    that is dim (L/I)^(L/I) - dim L^2.

    No quotient algebra is built.  L ^ I -> L ^ L -> (L/I)^(L/I) -> 0 is
    exact (Ellis), so dim (L/I)^(L/I) = dim L ^ L - r, with r the rank of
    L ^ I modulo J.  For central I, d3(a ^ b ^ v) = [a,b] ^ v puts
    L^2 ^ I inside J, and L is span(x_l) + L^2, so r is the rank of the
    residuals of v ^ x_l mod J over the generators x_l and the rows v of
    I, read off the residual table of _wedge that exterior_center reads
    too.  Since dim M(L) = dim L ^ L - dim L^2, the right side is lhs - r.

    (r, containment of I in Z^(L)) is cached on L under ("bound", I): I
    is a canonical Subspace, so two spanning sets of one ideal share the
    key, and its field is part of the key.  The ambient and centrality
    checks run on every call."""
    if I.ambient_dim != L.dim:
        raise ShapeError("ideal lives in the wrong space")
    if not L.center().contains_subspace(I):
        raise NotIdealError("ideal is not central")
    lhs = schur_multiplier_dim(L)
    cached = L._cache.get(("bound", I))
    if cached is None:
        cached = (_central_wedge_rank(L, I),
                  exterior_center(L).contains_subspace(I))
        L._cache[("bound", I)] = cached
    rank, contained = cached
    return DDResult(lhs=lhs, rhs=lhs - rank, contained=contained)
