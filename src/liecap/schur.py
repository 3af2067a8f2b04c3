"""The Schur multiplier, the exterior square and the exterior center, by
one of two routes chosen from the size of the input.

Wedge route.  L ^ L is Lambda^2 L / J with J = im d3, where

    d3(x ^ y ^ z) = [x,y] ^ z + [y,z] ^ x + [z,x] ^ y

(Chevalley-Eilenberg; Ellis).  J is spanned once from the C(n,3) basis
triples i < j < k, as rows over the C(n,2) basis pairs e_i ^ e_j (i < j),
and then

    dim L ^ L = C(n,2) - dim J,     dim M(L) = dim L ^ L - dim L^2,
    Z^(L) = {z : z ^ e_j in J for every j}.

The residual of a basis pair e_p mod J is read off J's canonical rows:
when p is a pivot of J it is minus the row with pivot p, that pivot entry
dropped, and otherwise e_p itself, so no reduction pass is needed.  The
cost depends on n = dim L alone.

Presentation route.  For L of class c with d = dim(L/L^2), present L as
F/R with F free nilpotent of class c+1 on d generators.  Truncating at
class c+1 is harmless: the discarded degrees lie inside [R, F] for any
full free presentation, so the multiplier quotient (R cap F^2)/[R,F], the
exterior square F^2/[R,F], and the exterior center are unchanged.

Only [R, F] is built.  By Hopf's formula M(L) = (R cap F^2)/[R, F], and
the projection pi : F -> L maps F^2 onto L^2 with kernel R cap F^2, so

    dim M(L) = dim F^2 - dim L^2 - dim [R, F].

Both invariants bracket with the d free generators x_l only; tests check
each against a route over the whole cover:

* [R, F] is spanned by brackets of R-basis vectors with the d generators
  alone.  (Induction on Hall-tree degree: [r,[u,v]] = [[r,u],v] + [u,[r,v]]
  and R is an ideal, so both terms reduce to lower-degree second factors.)

* The exterior center is {z : [s(z), x_l] in [R, F] for every generator x_l},
  free generators only: [s(z), [a,b]] = [[s(z),a],b] + [a,[s(z),b]] lies in
  [R, F] by induction on degree, because [R, F] is an ideal inside R.

Choice.  The wedge route costs C(n,3) * C(n,2); the presentation route
(dim F(d,c+1) - n) * d * dim F(d,c+1), the size of the rows spanning
[R, F], with the cover's dimension from the Witt formula, so nothing is
built to decide.  Each route has a size guard, C(n,2) <= DEFAULT_MAX_DIM
and dim F(d,c+1) <= DEFAULT_MAX_DIM; the cheaper route that fits runs,
and ResourceError is raised only when neither fits.  The dim-0 and
nilpotency checks come before either route.  The presentation
route serves large free-type inputs, where R is small, and is the tests'
ground-truth oracle for the wedge route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .errors import NotIdealError, NotNilpotentError, ResourceError, ShapeError
from .freelie import (
    DEFAULT_MAX_DIM,
    FreeNilpotent,
    extend_hom,
    free_dimension,
    free_nilpotent,
)
from .liealg import Hom, LieAlgebra, minimal_generators
from .linalg import (
    Matrix,
    Subspace,
    kernel,
    _span_canonical,
    reduce_rows,
    solve_right_inverse,
    subspace_intersect,
    zero_subspace,
)


@dataclass(frozen=True)
class Presentation:
    """L presented as F/R with the subspaces the invariants live in."""

    L: LieAlgebra
    F: FreeNilpotent
    pi: Hom
    section: Matrix
    R: Subspace
    RF: Subspace

    @property
    def dim_F(self) -> int:
        return self.F.dim

    @property
    def dim_F2(self) -> int:
        return self.F.dim - self.F.d


@dataclass(frozen=True)
class HomologyReport:
    dim_M: int
    dim_exterior_square: int
    exterior_center: Subspace
    capable: bool

    def to_json(self) -> dict:
        return {
            "dim_multiplier": self.dim_M,
            "dim_exterior_square": self.dim_exterior_square,
            "dim_exterior_center": self.exterior_center.dim,
            "capable": self.capable,
        }


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
# free presentations
# ======================================================================

def free_presentation(L: LieAlgebra) -> Presentation:
    if L.dim == 0:
        raise ShapeError("zero algebra has no free presentation here")
    if not L.is_nilpotent:
        raise NotNilpotentError("free presentation requires a nilpotent algebra")
    cached = L._cache.get("presentation")
    if cached is None:
        images = [list(r) for r in minimal_generators(L).basis]
        cached = _present(L, images)
        L._cache["presentation"] = cached
    return cached


def _present(L: LieAlgebra, images: list) -> Presentation:
    """L as F/R, with the free generators sent to `images`, which must
    generate L.  Any generating images give the same invariants; tests
    pass other choices to check that."""
    F = free_nilpotent(len(images), max(L.nilpotency_class(), 1) + 1, L.field)
    pi = extend_hom(F, L, images)
    R = pi.kernel()
    if R.dim != F.dim - L.dim:
        raise ShapeError("presentation map is not onto L "
                         "(does the table satisfy Jacobi?)")
    section = solve_right_inverse(pi.matrix)
    RF = _commutator_with_free(F, R)
    return Presentation(L=L, F=F, pi=pi, section=section, R=R, RF=RF)


def _bracket_with_generators(F: FreeNilpotent, vecs) -> list:
    """[v, x_l] for each v in `vecs` and each generator l < d, as sparse
    dicts in that order."""
    alg = F.algebra
    one = F.field.one
    out = []
    for v in vecs:
        sv = {i: a for i, a in enumerate(v) if a != 0}
        out.extend(alg.bracket_sparse(sv, {l: one}) for l in range(F.d))
    return out


def _commutator_with_free(F: FreeNilpotent, R: Subspace) -> Subspace:
    """[R, F] inside the truncated cover, spanned over generators only."""
    rows = [F.algebra._densify(w)
            for w in _bracket_with_generators(F, R.basis) if w]
    return _span_canonical(F.field, F.dim, rows)


# ======================================================================
# the wedge route
# ======================================================================

def _route(L: LieAlgebra) -> str:
    """'wedge' or 'presentation', by the cost rule in the module docstring.

    L must be nonzero.  Nilpotency is checked first, and ResourceError is
    raised, before anything is built, when neither route fits its guard."""
    if not L.is_nilpotent:
        raise NotNilpotentError("homology requires a nilpotent algebra")
    n = L.dim
    d = n - L.derived_subalgebra().dim
    c = max(L.nilpotency_class(), 1) + 1
    cover = free_dimension(d, c)
    pairs = comb(n, 2)
    wedge_fits = pairs <= DEFAULT_MAX_DIM
    cover_fits = cover <= DEFAULT_MAX_DIM
    if not (wedge_fits or cover_fits):
        raise ResourceError(
            f"Lambda^2 L has dimension {pairs} and F({d},{c}) has "
            f"dimension {cover}, both > guard {DEFAULT_MAX_DIM}")
    if wedge_fits and (not cover_fits or
                       comb(n, 3) * pairs <= (cover - n) * d * cover):
        return "wedge"
    return "presentation"


def _pair_columns(n: int) -> list:
    """col[i][j] = col[j][i] = the column of e_i ^ e_j (i < j) among the
    C(n,2) pairs in lexicographic order."""
    col = [[0] * n for _ in range(n)]
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            col[i][j] = col[j][i] = p
            p += 1
    return col


def _wedge_relations(L: LieAlgebra) -> Subspace:
    """J = im d3 inside Lambda^2 L, spanned by d3 of the basis triples."""
    cached = L._cache.get("wedge_relations")
    if cached is not None:
        return cached
    f, n = L.field, L.dim
    npairs = comb(n, 2)
    col = _pair_columns(n)
    get = L.table.get
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = get((i, j), {})
            for k in range(j + 1, n):
                bjk, bik = get((j, k), {}), get((i, k), {})
                if not (bij or bjk or bik):
                    continue
                row = [f.zero] * npairs
                # [e_i,e_j] ^ e_k + [e_j,e_k] ^ e_i - [e_i,e_k] ^ e_j, with
                # e_t ^ e_m = -(e_m ^ e_t)
                for br, m, flip in ((bij, k, False), (bjk, i, False),
                                    (bik, j, True)):
                    for t, x in br.items():
                        if t != m:
                            p = col[t][m]
                            row[p] = f.add(row[p], f.neg(x)
                                           if flip != (t > m) else x)
                rows.append(row)
    cached = _span_canonical(f, npairs, rows)
    L._cache["wedge_relations"] = cached
    return cached


def _exterior_center_wedge(L: LieAlgebra) -> Subspace:
    """{z : z ^ e_j in J for every j}: one constraint row per (j, column
    of Lambda^2 L / J), whose entry at t is that column of the residual of
    e_t ^ e_j mod J."""
    f, n = L.field, L.dim
    J = _wedge_relations(L)
    col = _pair_columns(n)
    pivot_row = dict(zip(J.pivots, J.basis))
    residual = []
    for p in range(comb(n, 2)):
        row = pivot_row.get(p)
        if row is None:
            residual.append({p: f.one})
        else:
            residual.append({c: f.neg(x) for c, x in enumerate(row)
                             if x != 0 and c != p})
    rows: dict = {}
    for j in range(n):
        for t in range(n):
            if t == j:
                continue
            for c, x in residual[col[t][j]].items():
                if (j, c) not in rows:
                    rows[(j, c)] = [f.zero] * n
                rows[(j, c)][t] = x if t < j else f.neg(x)
    if not rows:
        return L.full_space()
    return kernel(Matrix(f, tuple(tuple(r) for r in rows.values()), n))


# ======================================================================
# invariants
# ======================================================================

def schur_multiplier_dim(L: LieAlgebra) -> int:
    return exterior_square_dim(L) - L.derived_subalgebra().dim


def exterior_square_dim(L: LieAlgebra) -> int:
    if L.dim == 0:
        return 0
    if _route(L) == "wedge":
        return comb(L.dim, 2) - _wedge_relations(L).dim
    pres = free_presentation(L)
    return pres.dim_F2 - pres.RF.dim


def exterior_center(L: LieAlgebra) -> Subspace:
    """{z in L : z wedge x = 0 for every x}, as a subspace of L."""
    if L.dim == 0:
        return zero_subspace(L.field, 0)
    cached = L._cache.get("exterior_center")
    if cached is None:
        if _route(L) == "wedge":
            cached = _exterior_center_wedge(L)
        else:
            cached = _exterior_center_from(free_presentation(L))
        L._cache["exterior_center"] = cached
    return cached


def _exterior_center_from(pres: Presentation) -> Subspace:
    L, F = pres.L, pres.F
    n, d = L.dim, F.d
    lifts = zip(*pres.section.rows)
    residuals = reduce_rows(pres.RF, [F.algebra._densify(w) for w in
                                      _bracket_with_generators(F, lifts)])
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
    return kernel(Matrix(L.field, tuple(tuple(rows[k]) for k in sorted(rows)),
                         n))


def is_capable(L: LieAlgebra) -> bool:
    """True exactly when the exterior center vanishes."""
    return exterior_center(L).is_zero


def homology(L: LieAlgebra) -> HomologyReport:
    cached = L._cache.get("homology") if L.dim else None
    if cached is not None:
        return cached
    zc = exterior_center(L)
    report = HomologyReport(
        dim_M=schur_multiplier_dim(L),
        dim_exterior_square=exterior_square_dim(L),
        exterior_center=zc,
        capable=zc.is_zero,
    )
    if L.dim:
        L._cache["homology"] = report
    return report


def epicenter_test_dd(L: LieAlgebra, I: Subspace) -> DDResult:
    """Compare dim M(L) with dim M(L/I) - dim(L^2 cap I) for a central
    ideal I, and report whether I sits inside the exterior center."""
    if I.ambient_dim != L.dim:
        raise ShapeError("ideal lives in the wrong space")
    if not L.center().contains_subspace(I):
        raise NotIdealError("ideal is not central")
    lhs = schur_multiplier_dim(L)
    if I.is_zero:
        return DDResult(lhs=lhs, rhs=lhs, contained=True)
    quotient_alg, _ = L.quotient(I)
    overlap = subspace_intersect(L.derived_subalgebra(), I).dim
    rhs = schur_multiplier_dim(quotient_alg) - overlap
    contained = exterior_center(L).contains_subspace(I)
    return DDResult(lhs=lhs, rhs=rhs, contained=contained)
