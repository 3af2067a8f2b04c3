"""Independent brute-force oracles shared by the test modules.

Everything here is computed by a different route than the package uses, so
agreement is meaningful evidence rather than a tautology.

The largest is the presentation route: L as F/R with F the free nilpotent
algebra of class c+1 on d = dim(L/L^2) generators.  Truncating at class c+1
is harmless: the discarded degrees lie inside [R, F] for any full free
presentation.  Then M(L) = (R cap F^2)/[R, F] (Hopf), the projection maps
F^2 onto L^2 with kernel R cap F^2, and

    dim M(L) = dim F^2 - dim L^2 - dim [R, F],
    dim L ^ L = dim F^2 - dim [R, F],
    Z^(L) = {z : [s(z), x_l] in [R, F] for every free generator x_l},

s a section of the projection.  [R, F] is spanned by the brackets of
R's basis with the d generators alone: [r,[u,v]] = [[r,u],v] + [u,[r,v]]
and R is an ideal, so induction on Hall-tree degree reduces the second
factor.  The same induction, with [R, F] an ideal inside R, gives the
exterior center from the generators.  `commutator_full_route` and
`exterior_center_all_pairs` check both shortcuts against the whole cover.

The module also keeps what the package no longer needs and the tests
still read: `Hom`, a linear map held as its rows, with its image, kernel
and bracket check;
the stem decomposition L = T (+) A (`stem_decompose`, built with
`extend_to_complement` and `subalgebra_on`), which checks the class-2
rule's stem dimension; `subspace_sum`, `span_rows` and `coordinates`;
and `exterior_center_whole_kernel`, the exterior center solved over all
n coordinates of L, where the package solves only over the support of
L^2.

`gauss_jordan` is textbook dense elimination with FieldSpec arithmetic,
the reference that the package's row reduction is compared with, and
`null_space_gauss_jordan` the kernel read off it.  `rref_rows` is the
dense RREF that `span_rows`, `extend_to_complement` and
`solve_right_inverse` run: numpy's `_rref_gf` over GF(p), which the
package no longer has, and the package's `_echelon_sparse` over Q.  It is
not `gauss_jordan`, whose FieldSpec arithmetic would make the
presentation route several times slower.  `reduce_dense` is the
dense residual mod a subspace that the quotient oracles read, so that
they share no code with `Subspace._residual`, which `LieAlgebra.quotient`
runs.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from liecap.errors import NotIdealError, NotNilpotentError, ShapeError
from liecap.freelie import FreeNilpotent, free_nilpotent
from liecap.liealg import LieAlgebra, direct_sum, minimal_generators
from liecap.linalg import (
    Subspace,
    _echelon_sparse,
    coordinate_subspace,
    kernel,
    span,
    subspace_intersect,
    zero_subspace,
)
from liecap.schur import (
    DDResult,
    _wedge,
    exterior_center,
    schur_multiplier_dim,
)


def gauss_jordan(f, rows) -> tuple:
    """(the nonzero RREF rows, their pivots) of dense rows over f, by
    Gauss-Jordan elimination: for each column, move the first remaining
    row nonzero there up, scale it to 1 there, and clear the column from
    every other row."""
    work = [list(row) for row in rows]
    pivots = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        x = work[r][c]
        inv = f.one / x if f.is_rationals else pow(x, -1, f.p)
        work[r] = [f.mul(inv, y) for y in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c] != 0:
                work[i] = [f.sub(y, f.mul(row[c], z))
                           for y, z in zip(row, work[r])]
        pivots.append(c)
    return work[:len(pivots)], pivots


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


def rref_rows(field, rows) -> tuple[list, list[int]]:
    """Canonical RREF of dense rows, entries canonical in `field`: (the
    nonzero canonical rows, their pivots), one row per pivot.  Over GF(p)
    numpy reduces them in int64 arrays, with the column eliminations
    vectorized; FieldSpec caps p below 2^31, so residue products fit."""
    rows = list(rows)
    if not rows:
        return [], []
    if not field.is_rationals:
        return _rref_gf(rows, field.p)
    zero, n = field.zero, len(rows[0])
    echelon = _echelon_sparse(field, n, map(dict, _pairs(rows)))
    pivots = sorted(echelon)
    return [[echelon[p].get(c, zero) for c in range(n)]
            for p in pivots], pivots


def _pairs(rows) -> tuple:
    """The (column, value) pairs of each dense row's nonzero entries."""
    return tuple(tuple((c, x) for c, x in enumerate(row) if x)
                 for row in rows)


def reduce_dense(sub: Subspace, v: Sequence) -> tuple:
    """Residual of a dense vector v, its entries canonical in sub's field,
    mod sub: for each dense canonical row in pivot order, v minus its
    entry at the pivot times the row."""
    if len(v) != sub.ambient_dim:
        raise ShapeError(f"vector length {len(v)} != ambient "
                         f"{sub.ambient_dim}")
    f = sub.field
    w = list(v)
    for row, p in zip(sub.basis, sub.pivots):
        c = w[p]
        if c != 0:
            w = [f.sub(y, f.mul(c, x)) for y, x in zip(w, row)]
    return tuple(w)


def null_space_gauss_jordan(f, n: int, rows) -> tuple:
    """(the RREF basis rows, their pivots) of {v : row . v = 0 for every
    row} in f^n: for each free column c of the Gauss-Jordan form of the
    rows, the vector 1 at c and minus the reduced entries of column c at
    the pivots, those vectors put in RREF by Gauss-Jordan again."""
    reduced, pivots = gauss_jordan(f, rows)
    null = []
    for c in sorted(set(range(n)) - set(pivots)):
        v = [f.zero] * n
        v[c] = f.one
        for row, p in zip(reduced, pivots):
            v[p] = f.neg(row[c])
        null.append(v)
    return gauss_jordan(f, null)


def lyndon_count(d: int, k: int) -> int:
    """Number of Lyndon words of length k over a d-letter alphabet, by direct
    enumeration: a word is Lyndon iff it is strictly smaller than every
    proper rotation.  This equals the degree-k dimension of the free Lie
    algebra on d generators."""
    count = 0
    for w in itertools.product(range(d), repeat=k):
        if all(w < w[i:] + w[:i] for i in range(1, k)):
            count += 1
    return count


def brute_force_multiplier_dim_abelian(n: int) -> int:
    """dim of the degree-2 component of the free Lie algebra on n
    generators, counted as unordered index pairs: the multiplier of the
    n-dimensional abelian algebra."""
    return n * (n - 1) // 2


def jacobi_violations_all_triples(L):
    """Every basis triple i < j < k, in increasing order, at which
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] is nonzero, from
    dense brackets over all C(n,3) triples."""
    f = L.field
    e = [L.basis_vector(i) for i in range(L.dim)]
    out = []
    for i, j, k in itertools.combinations(range(L.dim), 3):
        terms = (L.bracket(e[i], L.bracket(e[j], e[k])),
                 L.bracket(e[j], L.bracket(e[k], e[i])),
                 L.bracket(e[k], L.bracket(e[i], e[j])))
        if any(f.add(f.add(x, y), z) != 0 for x, y, z in zip(*terms)):
            out.append((i, j, k))
    return tuple(out)


def bracket_subspaces_all_pairs(L, a, b):
    """span{[x, y]} over every pair of basis rows x of a, y of b, by dense
    brackets."""
    return span(L.field, L.dim, [L.bracket(x, y)
                                 for x in a.basis for y in b.basis])


def lower_central_series_loop(L):
    """(L^1, L^2, ...) down to 0 or to stabilization, each term spanned
    from dense brackets of the previous one with every basis vector."""
    full = L.full_space()
    series = [full]
    while True:
        nxt = bracket_subspaces_all_pairs(L, series[-1], full)
        series.append(nxt)
        if nxt.dim == series[-2].dim or nxt.is_zero:
            return tuple(series)


def upper_central_series_by_quotients(L):
    """(Z_0 = 0, Z_1 = Z(L), ...) up to L or to stabilization, with
    Z_{i+1} the preimage of the center of the quotient algebra L/Z_i under
    its projection."""
    series = [zero_subspace(L.field, L.dim)]
    while True:
        zi = series[-1]
        if zi.dim == L.dim:
            break
        quot, proj = quotient_with_projection(L, zi)
        zq = quot.center()
        # preimage: v with proj(v) in Z(Q), i.e. residual of proj(v) mod
        # Z(Q) vanishes
        cols = [reduce_dense(zq, proj.column(k)) for k in range(L.dim)]
        nxt = kernel(L.field, L.dim, zip(*cols)) if quot.dim \
            else L.full_space()
        if nxt.dim == zi.dim:
            series.append(nxt)  # stabilized below L: not nilpotent
            break
        series.append(nxt)
    return tuple(series)


def quotient_projection_by_reduction(L, ideal) -> tuple:
    """The rows of the projection L -> L/I, each e_k reduced mod I and read
    at I's non-pivot coordinates, after the same ideal check as
    `LieAlgebra.quotient`."""
    for row in ideal.basis:
        srow = {i: c for i, c in enumerate(row) if c != 0}
        for j in range(L.dim):
            img = L.bracket_sparse(srow, {j: L.field.one})
            if img and any(reduce_dense(ideal, L._densify(img))):
                raise NotIdealError(
                    f"subspace is not an ideal (fails at basis {j})")
    keep = [k for k in range(L.dim) if k not in set(ideal.pivots)]
    cols = [reduce_dense(ideal, L.basis_vector(k)) for k in range(L.dim)]
    return tuple(tuple(cols[k][t] for k in range(L.dim)) for t in keep)


def quotient_with_projection(L, ideal):
    """(L/I, the projection L -> L/I as a Hom), the projection's rows
    from `quotient_projection_by_reduction`."""
    quot = L.quotient(ideal)
    return quot, Hom(L, quot, quotient_projection_by_reduction(L, ideal))


def quotient_table_by_kept_pairs(L, ideal) -> dict:
    """The bracket table of L/I (I an ideal), from every pair of basis
    vectors at I's non-pivot coordinates bracketed by `bracket_basis` and
    reduced mod I."""
    row_of = dict(zip(ideal.pivots, ideal.basis))
    keep = [k for k in range(L.dim) if k not in row_of]
    pos = {k: a for a, k in enumerate(keep)}
    m = len(keep)
    brackets: dict = {}
    for a in range(m):
        for b in range(a + 1, m):
            sv = L.bracket_basis(keep[a], keep[b])
            if not sv:
                continue
            residual = reduce_dense(ideal, L._densify(sv))
            # residual is supported on non-pivot coordinates of the ideal
            entry = {pos[k]: c for k, c in enumerate(residual) if c != 0}
            if entry:
                brackets[(a, b)] = entry
    return LieAlgebra(L.field, m, brackets).table


def epicenter_test_dd_by_intersection(L, I) -> DDResult:
    """The central-ideal bound with its right side dim M(L/I) -
    dim(L^2 cap I), L^2 cap I formed by Zassenhaus intersection."""
    if I.ambient_dim != L.dim:
        raise ShapeError("ideal lives in the wrong space")
    if not L.center().contains_subspace(I):
        raise NotIdealError("ideal is not central")
    lhs = schur_multiplier_dim(L)
    if I.is_zero:
        return DDResult(lhs=lhs, rhs=lhs, contained=True)
    quotient_alg = L.quotient(I)
    overlap = subspace_intersect(L.derived_subalgebra(), I).dim
    rhs = schur_multiplier_dim(quotient_alg) - overlap
    contained = exterior_center(L).contains_subspace(I)
    return DDResult(lhs=lhs, rhs=rhs, contained=contained)


def exterior_center_whole_kernel(L: LieAlgebra) -> Subspace:
    """Z^(L) as the kernel of z -> (sum_t z_t res[l][t])_l over all n
    coordinates of L, res the generator residuals of schur._wedge: one
    dense row per (l, column of L ^ L), with no use of Z^(L) <= L^2."""
    f, n = L.field, L.dim
    rows: dict = {}
    for l, per_l in enumerate(_wedge(L).residuals):
        for t, res in per_l.items():
            for i, x in res:
                rows.setdefault((l, i), [f.zero] * n)[t] = x
    return kernel(f, n, rows.values())


def coordinates(sub: Subspace, v: Sequence) -> tuple:
    """Coordinates of v in sub's canonical basis (v must lie in the span),
    its entries coerced into the field first."""
    v = [sub.field.coerce(x) for x in v]
    if any(reduce_dense(sub, v)):
        raise ShapeError("vector not in subspace")
    return tuple(v[p] for p in sub.pivots)


def span_rows(f, n: int, rows) -> Subspace:
    """span() of dense rows of length n whose entries are already
    canonical in f, through rref_rows, with nothing coerced again: the
    public span() re-coerces every entry, which made the presentation
    test about 4x slower."""
    reduced, pivots = rref_rows(f, rows)
    return Subspace(f, n, _pairs(reduced), tuple(pivots))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_mate(b)
    return span_rows(a.field, a.ambient_dim, a.basis + b.basis)


def apply_rows(field, rows, v: Sequence) -> tuple:
    """The product of the map held as `rows` with the vector v."""
    out = []
    for row in rows:
        if len(row) != len(v):
            raise ShapeError(f"vector length {len(v)} != {len(row)} columns")
        acc = field.zero
        for a, x in zip(row, v):
            if a != 0 and x != 0:
                acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return tuple(out)


class Hom:
    """Linear map between Lie algebras, held as target.dim rows of length
    source.dim."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: LieAlgebra, target: LieAlgebra, rows):
        rows = tuple(map(tuple, rows))
        if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
            raise ShapeError("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.rows = rows

    def apply(self, v: Sequence) -> tuple:
        return apply_rows(self.target.field, self.rows, v)

    def column(self, k: int) -> tuple:
        return tuple(r[k] for r in self.rows)

    def image(self) -> Subspace:
        return span(self.target.field, self.target.dim,
                    [self.column(k) for k in range(self.source.dim)])

    def kernel(self) -> Subspace:
        return kernel(self.target.field, self.source.dim, self.rows)

    def is_bracket_compatible(self) -> bool:
        """phi([x, y]) == [phi(x), phi(y)] on all basis pairs."""
        src, tgt = self.source, self.target
        for i in range(src.dim):
            fi = self.column(i)
            for j in range(i + 1, src.dim):
                lhs = self.apply(src._densify(src.bracket_basis(i, j)))
                rhs = tgt.bracket(fi, self.column(j))
                if lhs != rhs:
                    return False
        return True


def complement_in(sub: Subspace, ambient: Subspace) -> Subspace:
    """Deterministic complement of `sub` inside `ambient`: the ambient basis
    rows whose pivots avoid sub's pivots.  Requires sub <= ambient."""
    sub._check_mate(ambient)
    if not ambient.contains_subspace(sub):
        raise ShapeError("complement_in: first argument is not inside second")
    taken = set(sub.pivots)
    rows, pivots = [], []
    for row, p in zip(ambient.rows, ambient.pivots):
        if p not in taken:
            rows.append(row)
            pivots.append(p)
    return Subspace(ambient.field, ambient.ambient_dim, tuple(rows),
                    tuple(pivots))


def extend_to_complement(seed: Subspace, avoid: Subspace) -> Subspace:
    """Smallest-index-greedy complement of `avoid` containing `seed`: seed
    and the e_k that, tried in index order, enlarge span(seed + avoid + the
    e_j kept so far).  Requires seed and avoid independent.

    With W = seed + avoid, each earlier e_j is kept or already in the span,
    so e_k is kept exactly when e_k is not in W + span(e_j : j < k), that
    is, when no vector of W has its last nonzero coordinate at k.  In W
    reduced with its columns reversed, a nonzero combination of echelon rows
    starts at the least pivot of the rows it uses, so those last coordinates
    are the reversed pivots.  One reduction finds every e_k kept, and a
    second puts seed and them in canonical form.
    """
    seed._check_mate(avoid)
    n = seed.ambient_dim
    f = seed.field
    _, pivots = rref_rows(f, [row[::-1] for row in seed.basis + avoid.basis])
    if len(pivots) != seed.dim + avoid.dim:
        raise ShapeError("extend_to_complement: seed meets avoid")
    last = {n - 1 - p for p in pivots}
    picked = coordinate_subspace(f, n, set(range(n)) - last).basis
    result = span_rows(f, n, seed.basis + picked)
    if result.dim != n - avoid.dim:
        raise ShapeError("extend_to_complement: complement has wrong dimension")
    return result


def extend_to_complement_greedy(seed: Subspace, avoid: Subspace) -> Subspace:
    """Smallest-index-greedy complement of `avoid` containing `seed`.

    Requires seed and avoid independent.  Standard basis vectors are tried in
    index order and kept when they enlarge span(seed + avoid + picked).
    """
    seed._check_mate(avoid)
    n = seed.ambient_dim
    f = seed.field
    if subspace_sum(seed, avoid).dim != seed.dim + avoid.dim:
        raise ShapeError("extend_to_complement: seed meets avoid")
    picked = []
    current = span_rows(f, n, seed.basis + avoid.basis)
    for k in range(n):
        if current.dim == n:
            break
        e = tuple(f.one if j == k else f.zero for j in range(n))
        if not current.contains(e):
            picked.append(e)
            current = span_rows(f, n, current.basis + (e,))
    result = span_rows(f, n, seed.basis + tuple(picked))
    if result.dim != n - avoid.dim:
        raise ShapeError("extend_to_complement: complement has wrong dimension")
    return result


def subalgebra_on(L: LieAlgebra, space: Subspace) -> LieAlgebra:
    """The algebra structure induced on a bracket-closed subspace of L,
    in the subspace's canonical basis."""
    m = space.dim
    brackets: dict = {}
    for a in range(m):
        sa = {i: c for i, c in enumerate(space.basis[a]) if c != 0}
        for b in range(a + 1, m):
            sb = {i: c for i, c in enumerate(space.basis[b]) if c != 0}
            sv = L.bracket_sparse(sa, sb)
            if not sv:
                continue
            coords = coordinates(space, L._densify(sv))
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                brackets[(a, b)] = entry
    return LieAlgebra(L.field, m, brackets)


@dataclass(frozen=True)
class StemDecomposition:
    """L = T + A with T a stem ideal containing L^2 and A a central abelian
    direct factor; iso maps direct_sum(T, A) onto L."""

    T: LieAlgebra
    A: LieAlgebra
    iso: Hom


def stem_decompose(L: LieAlgebra) -> StemDecomposition:
    """Split nilpotent L as T (+) A with A an abelian direct summand chosen
    inside the center, T a stem ideal containing L^2 (pivot-greedy rule)."""
    if not L.is_nilpotent:
        raise NotNilpotentError("stem decomposition needs a nilpotent algebra")
    z, derived = L.center(), L.derived_subalgebra()
    a_space = complement_in(subspace_intersect(z, derived), z)
    t_space = extend_to_complement(derived, a_space)
    T = subalgebra_on(L, t_space)
    T.name = f"stem({L.name})" if L.name else ""
    A = LieAlgebra(L.field, a_space.dim, {}, name=f"A({a_space.dim})")
    d = direct_sum(T, A)
    iso = Hom(d, L, zip(*t_space.basis, *a_space.basis))
    # stem property: Z(T) inside T^2 (= L^2)
    if not T.derived_subalgebra().contains_subspace(T.center()):
        raise ShapeError("stem decomposition failed the stem check")
    return StemDecomposition(T=T, A=A, iso=iso)


# ----------------------------------------------------------------------
# pencils of alternating forms: the class-2 algebras with dim L^2 = 2
# ----------------------------------------------------------------------

def pencil_algebra(f, d: int, x: dict, y: dict, name: str = "") -> LieAlgebra:
    """The algebra on K^d (+) K^2 with [e_a, e_b] = x(a, b) e_d +
    y(a, b) e_(d+1) for a < b < d, x and y alternating forms given by
    their values {(a, b): scalar} on those pairs (missing pairs are 0)."""
    table = {}
    for pair in itertools.combinations(range(d), 2):
        entry = {k: c for k, c in ((d, x.get(pair, 0)),
                                   (d + 1, y.get(pair, 0))) if c}
        if entry:
            table[pair] = entry
    return LieAlgebra(f, d + 2, table, name=name)


def pencils(f, d: int):
    """One algebra per 2-dim space of alternating forms on K^d, K = GF(p),
    L^2 on the last two coordinates: the canonical RREF pairs (x, y) of
    K^C(d, 2), indexed by the pairs a < b < d in lexicographic order.  x is
    1 at its pivot p1 and 0 at y's pivot p2 and before p1; y is 1 at p2 and
    0 before.  There are [C(d, 2) choose 2]_p of them, a Gaussian binomial
    coefficient."""
    pairs = list(itertools.combinations(range(d), 2))
    m, scalars = len(pairs), range(f.p)
    for p1, p2 in itertools.combinations(range(m), 2):
        free1 = [c for c in range(p1 + 1, m) if c != p2]
        free2 = range(p2 + 1, m)
        for v1 in itertools.product(scalars, repeat=len(free1)):
            x = {pairs[c]: v for c, v in zip(free1, v1)}
            x[pairs[p1]] = 1
            for v2 in itertools.product(scalars, repeat=len(free2)):
                y = {pairs[c]: v for c, v in zip(free2, v2)}
                y[pairs[p2]] = 1
                yield pencil_algebra(f, d, x, y)


def random_pencil_stem(f, rng, decomposable: bool) -> LieAlgebra:
    """A random class-2 stem of dimension 7 with dim L^2 = 2: a pencil
    (x, y) on K^5 with no common radical, drawn until one is found.  With
    `decomposable`, y = a ^ b for random a, b, so the pencil has a member
    of rank 2 and the algebra is of L27B type; otherwise both forms are
    random, and either type can come out."""
    pairs = list(itertools.combinations(range(5), 2))

    def scalar():
        return rng.randint(-2, 2) if f.is_rationals else rng.randrange(f.p)

    while True:
        x = {pr: f.coerce(scalar()) for pr in pairs}
        if decomposable:
            a = [f.coerce(scalar()) for _ in range(5)]
            b = [f.coerce(scalar()) for _ in range(5)]
            y = {(i, j): f.sub(f.mul(a[i], b[j]), f.mul(a[j], b[i]))
                 for i, j in pairs}
        else:
            y = {pr: f.coerce(scalar()) for pr in pairs}
        L = pencil_algebra(f, 5, x, y, name="pencil(5)")
        if L.derived_subalgebra().dim == 2 and L.center().dim == 2:
            return L


def kronecker_pencil(f, blocks) -> LieAlgebra:
    """The pencil algebra of a sum of Kronecker blocks (Scharlau, Math. Z.
    147, 1976), each on the next free coordinates of V.  ("L", e), e >= 1,
    is the singular block L_e on u_0..u_e, v_1..v_e, with w1 = sum
    u_(i-1)^v_i and w2 = sum u_i^v_i; ("R", lam) is the regular block R_lam
    on u, v, with w1 = u^v and w2 = lam u^v, and ("R", None) is R_inf, with
    w1 = 0 and w2 = u^v."""
    w1, w2, d = {}, {}, 0
    for kind, x in blocks:
        if kind == "L":
            u, v = d, d + x  # u_i at u + i, v_i at v + i
            for i in range(1, x + 1):
                w1[(u + i - 1, v + i)] = 1
                w2[(u + i, v + i)] = 1
            d += 2 * x + 1
        else:
            if x is None:
                w2[(d, d + 1)] = 1
            else:
                w1[(d, d + 1)], w2[(d, d + 1)] = 1, x
            d += 2
    name = " + ".join(f"{kind}_{'inf' if x is None else x}"
                      for kind, x in blocks)
    return pencil_algebra(f, d, w1, w2, name=name)


def kronecker_stems(f, lambdas, max_t: int):
    """(blocks, L) for every multiset of blocks L_e (e >= 1) and at most
    three R_lam (lam in `lambdas`, or None) whose algebra is a stem of
    dimension at most max_t with dim L^2 = 2: w1 and w2 independent and
    Z(L) = L^2.  More regular blocks only add stems that a random pencil
    gives anyway."""
    kinds = ([("L", e) for e in range(1, (max_t - 2) // 2)]
             + [("R", lam) for lam in (*lambdas, None)])
    size = {b: 2 * b[1] + 1 if b[0] == "L" else 2 for b in kinds}
    for k in range(1, (max_t - 2) // 2 + 1):
        for blocks in itertools.combinations_with_replacement(kinds, k):
            if (sum(size[b] for b in blocks) + 2 <= max_t
                    and sum(kind == "R" for kind, _ in blocks) <= 3):
                L = kronecker_pencil(f, blocks)
                z = L.center()
                if L.derived_subalgebra() == z and z.dim == 2:
                    yield blocks, L


# ----------------------------------------------------------------------
# the presentation route
# ----------------------------------------------------------------------

def reduce_rows(sub: Subspace, rows: Sequence[Sequence]) -> list:
    """Residuals of many vectors mod `sub` (batched; numpy over GF(p))."""
    if not rows:
        return []
    f = sub.field
    if f.is_rationals or sub.is_zero:
        return [list(reduce_dense(sub, r)) for r in rows]
    p = f.p
    R = np.array([list(r) for r in rows], dtype=np.int64) % p
    B = np.array([list(b) for b in sub.basis], dtype=np.int64)
    for i, pc in enumerate(sub.pivots):
        col = R[:, pc].copy()
        nz = np.flatnonzero(col)
        if nz.size:
            R[nz] = (R[nz] - np.outer(col[nz], B[i])) % p
    return [[int(x) for x in row] for row in R]


def solve_right_inverse(f, rows, nc: int) -> tuple:
    """The rows of a section s with m . s = identity, for the map m held as
    `rows` of length nc (m must have full row rank).

    Found by reducing [m | I]: if U m is the RREF with pivot columns P, then
    s(e_k) = sum_i U[i][k] e_{P_i}.
    """
    nr = len(rows)
    aug = [list(row) + [f.one if i == j else f.zero for j in range(nr)]
           for i, row in enumerate(rows)]
    reduced, pivots = rref_rows(f, aug)
    pivots = [p for p in pivots if p < nc]
    if len(pivots) != nr:
        raise ShapeError("matrix does not have full row rank")
    section = [(f.zero,) * nr] * nc
    for i, p in enumerate(pivots):
        section[p] = tuple(reduced[i][nc:])
    return tuple(section)


def on_basis(L, P):
    """(P^-1, L') with L' the algebra L on the basis f_a = sum_i P[i][a]
    e_i, P invertible."""
    f, n = L.field, L.dim
    Pinv = solve_right_inverse(f, P, n)
    cols = list(zip(*P))
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            coords = apply_rows(f, Pinv, L.bracket(cols[a], cols[b]))
            entry_ab = {k: x for k, x in enumerate(coords) if x != 0}
            if entry_ab:
                brackets[(a, b)] = entry_ab
    return Pinv, LieAlgebra(f, n, brackets, name=f"{L.name}'")


def extend_hom(F: FreeNilpotent, target: LieAlgebra,
               images: Sequence[Sequence]) -> Hom:
    """The unique homomorphism F -> target sending generator l to images[l].

    Requires target nilpotent of class <= c (then the assignment extends by
    evaluating each Hall tree in the target).
    """
    if len(images) != F.d:
        raise ShapeError(f"need {F.d} generator images, got {len(images)}")
    if target.field != F.field:
        raise ShapeError("field mismatch between free algebra and target")
    if not target.is_nilpotent or target.nilpotency_class() > F.c:
        raise NotNilpotentError(
            f"target must be nilpotent of class <= {F.c}")
    img: list = []
    for l in range(F.d):
        v = tuple(F.field.coerce(x) for x in images[l])
        if len(v) != target.dim:
            raise ShapeError("generator image has wrong length")
        img.append(v)
    for idx in range(F.d, F.dim):
        t = F.trees[idx]
        li, ri = F.index[t[0]], F.index[t[1]]
        img.append(target.bracket(img[li], img[ri]))
    return Hom(F.algebra, target, zip(*img))


@dataclass(frozen=True)
class Presentation:
    """L presented as F/R with the subspaces the invariants live in."""

    L: LieAlgebra
    F: FreeNilpotent
    pi: Hom
    section: tuple  # the rows of a section of pi
    R: Subspace
    RF: Subspace

    @property
    def dim_F(self) -> int:
        return self.F.dim

    @property
    def dim_F2(self) -> int:
        return self.F.dim - self.F.d


def free_presentation(L: LieAlgebra) -> Presentation:
    """The presentation on the minimal generators, cached on L."""
    if L.dim == 0:
        raise ShapeError("zero algebra has no free presentation here")
    if not L.is_nilpotent:
        raise NotNilpotentError("free presentation requires a nilpotent algebra")
    cached = L._cache.get("presentation")
    if cached is None:
        images = [list(r) for r in minimal_generators(L).basis]
        cached = present(L, images)
        L._cache["presentation"] = cached
    return cached


def present(L: LieAlgebra, images: list) -> Presentation:
    """L as F/R, with the free generators sent to `images`, which must
    generate L.  Any generating images give the same invariants."""
    F = free_nilpotent(len(images), max(L.nilpotency_class(), 1) + 1, L.field)
    pi = extend_hom(F, L, images)
    R = pi.kernel()
    if R.dim != F.dim - L.dim:
        raise ShapeError("presentation map is not onto L "
                         "(does the table satisfy Jacobi?)")
    section = solve_right_inverse(L.field, pi.rows, F.dim)
    RF = commutator_with_free(F, R)
    return Presentation(L=L, F=F, pi=pi, section=section, R=R, RF=RF)


def bracket_with_generators(F: FreeNilpotent, vecs) -> list:
    """[v, x_l] for each v in `vecs` and each generator l < d, as sparse
    dicts in that order."""
    alg = F.algebra
    one = F.field.one
    out = []
    for v in vecs:
        sv = {i: a for i, a in enumerate(v) if a != 0}
        out.extend(alg.bracket_sparse(sv, {l: one}) for l in range(F.d))
    return out


def commutator_with_free(F: FreeNilpotent, R: Subspace) -> Subspace:
    """[R, F] inside the truncated cover, spanned over generators only."""
    rows = [F.algebra._densify(w)
            for w in bracket_with_generators(F, R.basis) if w]
    return span_rows(F.field, F.dim, rows)


def exterior_center_from(pres: Presentation) -> Subspace:
    """{z : [s(z), x_l] in [R, F] for every free generator x_l}."""
    L, F = pres.L, pres.F
    n, d = L.dim, F.d
    lifts = zip(*pres.section)
    residuals = reduce_rows(pres.RF, [F.algebra._densify(w) for w in
                                      bracket_with_generators(F, lifts)])
    # constraint matrix over z-coordinates: one row per (l, cover coord)
    zero = L.field.zero
    rows: dict = {}
    for i, res in enumerate(residuals):
        t, l = divmod(i, d)
        for c, x in enumerate(res):
            if x != 0:
                if (l, c) not in rows:
                    rows[(l, c)] = [zero] * n
                rows[(l, c)][t] = x
    if not rows:
        return L.full_space()
    return kernel(L.field, n, [rows[k] for k in sorted(rows)])


def commutator_full_route(F, R):
    """[R, F] spanned over the full Hall basis, not just the generators."""
    return F.algebra.bracket_subspaces(R, F.algebra.full_space())


def exterior_center_all_pairs(pres):
    """The exterior center from the definition: z with [s(z), s(e_j)] in
    [R, F] for the lift of every basis vector e_j of L, by n^2 dense cover
    brackets."""
    L, F = pres.L, pres.F
    n, alg = L.dim, F.algebra
    lifts = [tuple(pres.section[r][k] for r in range(F.dim))
             for k in range(n)]
    residuals = reduce_rows(pres.RF, [alg.bracket(a, b)
                                      for a in lifts for b in lifts])
    rows = [[residuals[t * n + j][c] for t in range(n)]
            for j in range(n) for c in range(F.dim)]
    rows = [row for row in rows if any(x != 0 for x in row)]
    if not rows:
        return L.full_space()
    return kernel(L.field, n, rows)
