"""Free presentations and the homological invariants built from them.

For a nilpotent algebra L of class c with d = dim(L/L^2), we present L as
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotIdealError, NotNilpotentError, ShapeError
from .freelie import FreeNilpotent, extend_hom, free_nilpotent
from .liealg import Hom, LieAlgebra, minimal_generators
from .linalg import (
    Matrix,
    Subspace,
    is_zero_vector,
    kernel,
    reduce_rows,
    solve_right_inverse,
    span,
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
    """[v, x_l] for each v in `vecs` and each generator l < d, as dense
    rows in that order."""
    alg = F.algebra
    one = F.field.one
    rows = []
    for v in vecs:
        sv = {i: a for i, a in enumerate(v) if a != 0}
        for l in range(F.d):
            rows.append(alg._densify(alg.bracket_sparse(sv, {l: one})))
    return rows


def _commutator_with_free(F: FreeNilpotent, R: Subspace) -> Subspace:
    """[R, F] inside the truncated cover, spanned over generators only."""
    rows = [w for w in _bracket_with_generators(F, R.basis)
            if not is_zero_vector(w)]
    return span(F.field, F.dim, rows)


# ======================================================================
# invariants
# ======================================================================

def schur_multiplier_dim(L: LieAlgebra) -> int:
    if L.dim == 0:
        return 0
    pres = free_presentation(L)
    return pres.dim_F2 - L.derived_subalgebra().dim - pres.RF.dim


def exterior_square_dim(L: LieAlgebra) -> int:
    if L.dim == 0:
        return 0
    pres = free_presentation(L)
    return pres.dim_F2 - pres.RF.dim


def exterior_center(L: LieAlgebra) -> Subspace:
    """{z in L : z wedge x = 0 for every x}, as a subspace of L."""
    if L.dim == 0:
        return zero_subspace(L.field, 0)
    cached = L._cache.get("exterior_center")
    if cached is None:
        cached = _exterior_center_from(free_presentation(L))
        L._cache["exterior_center"] = cached
    return cached


def _exterior_center_from(pres: Presentation) -> Subspace:
    L, F = pres.L, pres.F
    n, d = L.dim, F.d
    lifts = [tuple(pres.section.rows[r][k] for r in range(F.dim))
             for k in range(n)]
    residuals = reduce_rows(pres.RF, _bracket_with_generators(F, lifts))
    # constraint matrix over z-coordinates: one row per (l, cover coord)
    zero = L.field.zero
    rows = []
    for l in range(d):
        for c in range(F.dim):
            row = [residuals[t * d + l][c] for t in range(n)]
            if any(x != zero for x in row):
                rows.append(row)
    if not rows:
        return L.full_space()
    m = Matrix.from_rows(L.field, rows, ncols=n)
    return kernel(m)


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
