"""Structural capability rules, isomorphism-invariant fingerprints, and
the bundled verification suite.

capability_structural decides capability without the homology machinery:
from coarse invariants (derived dimension, class, center codimension,
stem dimension), and at class-2 stem dimension 7, where the two
candidates share every coarse invariant, from one rank.

The class-2 rule reads the stem dimension off the center.  Nilpotent L is
T (+) A', T a stem (Z(T) inside T^2) and A' abelian inside Z(L).  In
class 2, T^2 = L^2 lies in Z(T) too, so Z(L) = L^2 (+) A' and
t = dim T = codim Z(L) + 2 when dim L^2 = 2.  The entries w1, w2 of
[x, y] at L^2's two pivots, its coordinates in L^2's canonical basis,
are a pencil of alternating forms with common radical Z(L).  By the
Kronecker classification of such pencils, valid over every field
(Scharlau, Math. Z. 147, 1976), at t = 7 the pencil on L/Z(L) is one
block of minimal index 2 (L27A, capable), or one of minimal index 1 and
a regular 2-dim block (L27B).  The solutions (u, w) in L (+) L of
w1(u, .) = 0, w1(w, .) + w2(u, .) = 0 and w2(w, .) = 0 are the kernel
vectors u + s w of w1 + s w2 of degree <= 1: 2 dim Z(L) from the
radical, one more from a block of minimal index 1, none from the rest.
So L is capable exactly when that system has rank 2 codim Z(L).

verify_paper cross-checks the structural rules against the ground truth
on the whole catalog and on randomized samples, and returns a
deterministic pass/fail report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from typing import Optional, Sequence

from . import catalog, schur
from .errors import NotNilpotentError, ScopeError
from .field import GF2, QQ, FieldSpec
from .freelie import free_nilpotent, hall_basis, tree_degree, witt_dimension
from .liealg import LieAlgebra, abelian, central_product, direct_sum
from .linalg import (Subspace, _echelon_sparse, _span_canonical,
                     coordinate_subspace, subspace_intersect, zero_subspace)

# enumerated decision-rule tags for Verdict.rule
RULE_ABELIAN = "abelian-dimension"
RULE_DERIVED_LINE = "derived-line-center-codim"
RULE_CLASS3_CODIM = "class3-center-codim"
RULE_CLASS2_STEM_DIM = "class2-stem-dimension"
RULE_CLASS2_DIM7_PENCIL = "class2-stem-dim7-pencil-index"

ALL_RULES = (
    RULE_ABELIAN,
    RULE_DERIVED_LINE,
    RULE_CLASS3_CODIM,
    RULE_CLASS2_STEM_DIM,
    RULE_CLASS2_DIM7_PENCIL,
)

RANDOM_HEISENBERG_SAMPLES = 200  # dim-7 samples per field in verify_paper


# ======================================================================
# fingerprints
# ======================================================================

@dataclass(frozen=True)
class Fingerprint:
    """Computable isomorphism invariants.  Equality is necessary for an
    isomorphism, never claimed sufficient."""

    field: str
    dim: int
    nilpotency_class: int
    lower_dims: tuple
    upper_dims: tuple
    dim_center: int
    dim_derived: int
    dim_abelianization: int
    dim_multiplier: int
    dim_exterior_square: int
    dim_exterior_center: int
    capable: bool
    is_stem: bool
    gen_heisenberg_rank: int
    is_maximal_class: bool


def fingerprint(L: LieAlgebra) -> Fingerprint:
    profile = L.structural_profile()
    if not profile.is_nilpotent:
        raise NotNilpotentError("fingerprint requires a nilpotent algebra")
    report = schur.homology(L)
    return Fingerprint(
        field=str(L.field),
        dim=L.dim,
        nilpotency_class=profile.nilpotency_class,
        lower_dims=tuple(s.dim for s in L.lower_central_series()),
        upper_dims=tuple(s.dim for s in L.upper_central_series()),
        dim_center=L.center().dim,
        dim_derived=L.derived_subalgebra().dim,
        dim_abelianization=L.dim - L.derived_subalgebra().dim,
        dim_multiplier=report.dim_M,
        dim_exterior_square=report.dim_exterior_square,
        dim_exterior_center=report.exterior_center.dim,
        capable=report.capable,
        is_stem=profile.is_stem,
        gen_heisenberg_rank=profile.gen_heisenberg_rank,
        is_maximal_class=profile.is_maximal_class,
    )


# ======================================================================
# structural capability
# ======================================================================

@dataclass(frozen=True)
class Verdict:
    capable: bool
    rule: str
    family_label: Optional[str] = None
    detail: str = ""


def _with_tail(base: str, k: int) -> str:
    return f"{base} + A({k})" if k > 0 else base


def capability_structural(L: LieAlgebra) -> Verdict:
    """Capability decided by invariant dimensions, for dim L^2 <= 2."""
    if not L.is_nilpotent:
        raise NotNilpotentError("structural rules require a nilpotent algebra")
    if L.dim == 0:
        raise ScopeError("zero algebra is out of the structural rules' scope")
    der = L.derived_subalgebra().dim
    if der > 2:
        raise ScopeError(
            f"dim L^2 = {der} > 2 is out of the structural rules' scope")

    if der == 0:
        return Verdict(
            capable=L.dim >= 2,
            rule=RULE_ABELIAN,
            family_label=f"A({L.dim})",
            detail=f"abelian of dimension {L.dim}",
        )

    codim = L.dim - L.center().dim

    if der == 1:
        m = codim // 2
        k = L.dim - 2 * m - 1
        return Verdict(
            capable=codim == 2,
            rule=RULE_DERIVED_LINE,
            family_label=_with_tail(f"H({m})", k),
            detail=f"center codimension {codim}",
        )

    cls = L.nilpotency_class()
    if cls == 3:
        capable = 3 <= codim <= 4
        label = None
        if codim == 3:
            label = _with_tail("L4_3", L.dim - 4)
        elif codim == 4:
            label = _with_tail("L5_5", L.dim - 5)
        return Verdict(
            capable=capable,
            rule=RULE_CLASS3_CODIM,
            family_label=label,
            detail=f"class 3, center codimension {codim}",
        )

    # class 2 with 2-dimensional derived subalgebra: decide on the stem part
    t = codim + 2
    k = L.dim - t
    if t < 5:
        raise ScopeError(
            "class-2 stem with 2-dim derived subalgebra must have dim >= 5")
    if t == 5:
        return Verdict(True, RULE_CLASS2_STEM_DIM,
                       _with_tail("L5_8", k), f"stem dimension {t}")
    if t == 6:
        base = "L6_7_2(*)" if L.field.characteristic == 2 else "L6_22(*)"
        return Verdict(True, RULE_CLASS2_STEM_DIM,
                       _with_tail(base, k), f"stem dimension {t}")
    if t == 7:
        rank = _pencil_rank(L)
        capable = rank == 2 * codim
        return Verdict(capable, RULE_CLASS2_DIM7_PENCIL,
                       _with_tail("L27A" if capable else "L27B", k),
                       f"stem dimension 7, pencil rank {rank} of {2 * codim}")
    return Verdict(False, RULE_CLASS2_STEM_DIM, None,
                   f"stem dimension {t} >= 8")


def _pencil_rank(L: LieAlgebra) -> int:
    """Rank of the module docstring's system in (u, w), its rows read off
    the table as in LieAlgebra._center_mod, with nothing to sum."""
    f, n = L.field, L.dim
    p, q = L.derived_subalgebra().pivots
    rows: dict = {}
    for (i, j), entry in L.table.items():
        w1, w2 = entry.get(p), entry.get(q)
        for eq, c, off in ((0, w1, 0), (1, w1, n), (1, w2, 0), (2, w2, n)):
            if c is not None:
                rows.setdefault((eq, j), {})[off + i] = c
                rows.setdefault((eq, i), {})[off + j] = f.neg(c)
    return len(_echelon_sparse(f, 2 * n, rows.values()))


# ======================================================================
# constructions shared by the suite and the tests
# ======================================================================

def plus_abelian(L: LieAlgebra, k: int) -> LieAlgebra:
    """L + A(k) as a direct sum; L itself when k = 0."""
    if k == 0:
        return L
    return direct_sum(L, abelian(L.field, k))


@lru_cache(maxsize=None)
def class3_stem_products(field: FieldSpec) -> tuple:
    """Stem class-3 central products glued along the 1-dim center:
    L4_3 with H(m) and L5_5 with H(m), m = 1, 2.  The first has the
    structure of L6_10; all are non-capable once dim >= 6."""
    out = []
    for base_name, z_idx in (("L4_3", 3), ("L5_5", 4)):
        base = catalog.build(base_name, field)
        for m in (1, 2):
            h = catalog.build("H", field, m=m)
            prod, _ = central_product(
                base, h, [(z_idx, 2 * m)],
                name=f"{base_name} cp H({m})")
            out.append(prod)
    return tuple(out)


# ======================================================================
# verification suite
# ======================================================================

@dataclass
class CheckResult:
    check_id: str
    description: str
    values: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "values": self.values,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    field_labels: list
    seed: int
    sections: dict = dc_field(default_factory=dict)

    def add(self, section: str, check_id: str, description: str,
            values: dict, passed: bool) -> None:
        self.sections.setdefault(section, []).append(
            CheckResult(check_id, description, values, passed))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for cs in self.sections.values() for c in cs)

    @property
    def counts(self) -> tuple:
        total = sum(len(cs) for cs in self.sections.values())
        failed = sum(1 for cs in self.sections.values()
                     for c in cs if not c.passed)
        return total, failed

    def to_json(self) -> dict:
        total, failed = self.counts
        return {
            "fields": self.field_labels,
            "seed": self.seed,
            "sections": {
                name: [c.to_json() for c in checks]
                for name, checks in self.sections.items()
            },
            "total_checks": total,
            "failed_checks": failed,
            "all_passed": self.all_passed,
        }

    def to_text(self) -> str:
        lines = [f"verification over {', '.join(self.field_labels)} "
                 f"(seed {self.seed})"]
        for name, checks in self.sections.items():
            lines.append(f"-- {name} --")
            for c in checks:
                mark = "PASS" if c.passed else "FAIL"
                vals = ", ".join(f"{k}={v}" for k, v in c.values.items())
                lines.append(f"[{mark}] {c.check_id}: {c.description}"
                             + (f" ({vals})" if vals else ""))
        total, failed = self.counts
        lines.append(f"{total - failed}/{total} checks passed")
        return "\n".join(lines)


def _rand_central_line(L: LieAlgebra, rng: random.Random) -> Optional[Subspace]:
    z = L.center()
    if z.dim == 0:
        return None
    f = L.field
    while True:
        if f.is_rationals:
            coeffs = [f.scalar(rng.randint(-3, 3)) for _ in range(z.dim)]
        else:
            coeffs = [rng.randrange(f.p) for _ in range(z.dim)]
        if any(c != f.zero for c in coeffs):
            break
    vec: dict = {}
    for c, row in zip(coeffs, z.rows):
        for i, x in row:
            vec[i] = f.add(vec.get(i, f.zero), f.mul(c, x))
    return _span_canonical(f, L.dim, [{i: x for i, x in vec.items() if x}])


def verify_paper(fields: Sequence[FieldSpec] = (QQ, GF2),
                 seed: int = 0) -> VerificationReport:
    fields = tuple(fields)
    report = VerificationReport([str(f) for f in fields], seed)
    checks = (_check_multipliers, _check_class2, _check_class3,
              _check_quotient_witnesses,
              partial(_check_central_ideal_bound, seed=seed),
              _check_central_products, _check_free_algebra, _check_agreement,
              partial(_check_random_heisenberg, seed=seed),
              _check_homology_identities)
    for check in checks:
        for f in fields:
            check(report, f)
    return report


def _check_multipliers(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    sec = "multiplier_dims"
    family = ("rank-2 dim-6 char-2 family multiplier"
              if f.characteristic == 2 else "rank-2 dim-6 family multiplier")
    for L in catalog.rank2_dim6(f):
        got = schur.schur_multiplier_dim(L)
        report.add(sec, f"{lab}/{L.name}", family, {"dim_M": got}, got == 8)
    for n in range(2, 7):
        L = catalog.build("A", f, n=n)
        got = schur.schur_multiplier_dim(L)
        report.add(sec, f"{lab}/A({n})", "abelian multiplier n(n-1)/2",
                   {"dim_M": got}, got == n * (n - 1) // 2)
    heis = {1: 2, 2: 5, 3: 14}
    for m, want in heis.items():
        L = catalog.build("H", f, m=m)
        got = schur.schur_multiplier_dim(L)
        report.add(sec, f"{lab}/H({m})", "Heisenberg multiplier",
                   {"dim_M": got, "expected": want}, got == want)
    L = catalog.build("L4_3", f)
    got = schur.schur_multiplier_dim(L)
    report.add(sec, f"{lab}/L4_3", "maximal-class dim-4 multiplier",
               {"dim_M": got}, got == 2)
    if f.characteristic != 2:
        # central-line quotients of the dim-6 rank-2 family: values are
        # recorded and the capability-driving strict bound is asserted
        for L in catalog.rank2_dim6(f):
            m_l = schur.schur_multiplier_dim(L)
            dims = []
            ok = True
            for idx in (4, 5):
                line = coordinate_subspace(f, 6, [idx])
                q = L.quotient(line)
                mq = schur.schur_multiplier_dim(q)
                dims.append(mq)
                ok = ok and (mq - 1 < m_l)
            report.add(sec, f"{lab}/{L.name}/central-line-quotients",
                       "recorded quotient multipliers; strict bound "
                       "dim M(L/<x>) - 1 < dim M(L)",
                       {"dims": dims, "dim_M": m_l}, ok)


def _expected_class2(f: FieldSpec) -> list:
    return [(catalog.build("L5_8", f), True),
            *[(L, True) for L in catalog.rank2_dim6(f)],
            (catalog.build("L27A", f), True),
            (catalog.build("L27B", f), False),
            (catalog.build("H", f, m=2), False),
            (catalog.build("H", f, m=3), False)]


def _check_class2(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    for L, want in _expected_class2(f):
        got = schur.is_capable(L)
        report.add("class2_capability", f"{lab}/{L.name}",
                   "class-2 capability", {"capable": got, "expected": want},
                   got == want)


def _class3_instances(f: FieldSpec) -> list:
    """(algebra, expected_capable) pairs in scope for this field."""
    out = [
        (catalog.build("L4_3", f), True),
        (catalog.build("L5_5", f), True),
        (catalog.build("L6_10", f), False),
    ]
    for prod in class3_stem_products(f):
        if f.is_rationals and prod.dim > 7:
            continue
        out.append((prod, False))
    return out


def _check_class3(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    sec = "class3_capability"
    for L, want in _class3_instances(f):
        got = schur.is_capable(L)
        report.add(sec, f"{lab}/{L.name}", "class-3 capability",
                   {"capable": got, "expected": want}, got == want)
        if not want:
            zc = schur.exterior_center(L)
            z = L.center()
            uni = zc.dim == z.dim and z.contains_subspace(zc)
            report.add(sec, f"{lab}/{L.name}/unicentral",
                       "exterior center equals center",
                       {"dim_Z_wedge": zc.dim, "dim_Z": z.dim}, uni)
        # structure of the stem: 1-dim center equal to the last
        # lower-series term, quotient by it of Heisenberg-plus-abelian type
        if L.structural_profile().is_stem and L.nilpotency_class() == 3:
            z = L.center()
            gamma3 = L.lower_central_series()[2]
            q = L.quotient(z)
            shape_ok = (z.dim == 1
                        and gamma3.dim == 1
                        and z.contains_subspace(gamma3)
                        and q.derived_subalgebra().dim == 1
                        and q.dim - q.center().dim == 2)
            report.add(sec, f"{lab}/{L.name}/stem-structure",
                       "center = last series term, quotient of rank-1 type",
                       {"dim_Z": z.dim, "quotient_center_codim":
                        q.dim - q.center().dim}, shape_ok)
    # second-center dimensions of the dim-(2m+5) products
    for m in (1, 2):
        want_dim = 2 * m + 5
        if f.is_rationals and want_dim > 7:
            continue
        prod = class3_stem_products(f)[2 + (m - 1)]
        upper = prod.upper_central_series()
        z2 = upper[2].dim if len(upper) > 2 else upper[-1].dim
        report.add(sec, f"{lab}/{prod.name}/second-center",
                   "dim of second upper-series term",
                   {"dim": prod.dim, "dim_Z2": z2,
                    "expected": 2 * m + 3},
                   prod.dim == want_dim and z2 == 2 * m + 3)


def _check_quotient_witnesses(report: VerificationReport,
                              f: FieldSpec) -> None:
    lab = str(f)
    sec = "quotient_witnesses"
    cases = [("L5_7", 4, "L4_3"), ("L6_13", 5, "L5_5")]
    for src_name, kill, want_name in cases:
        src = catalog.build(src_name, f)
        line = coordinate_subspace(f, src.dim, [kill])
        q = src.quotient(line)
        want = catalog.build(want_name, f)
        report.add(sec, f"{lab}/{src_name}->{want_name}",
                   "central-line quotient reproduces the smaller table",
                   {"match": q.same_table(want)}, q.same_table(want))


def _check_central_ideal_bound(report: VerificationReport, f: FieldSpec,
                               seed: int) -> None:
    lab = str(f)
    sec = "central_ideal_bound"
    algebras = catalog.standard_instances(f)
    violations = 0
    checked = 0
    for idx, L in enumerate(algebras):
        derived = L.derived_subalgebra()
        # each canonical row of Z(L) is a canonical line on its own
        lines = [Subspace(f, L.dim, (row,), (row[0][0],))
                 for row in L.center().rows]
        rng = random.Random(seed * 1009 + idx)
        for _ in range(20):
            line = _rand_central_line(L, rng)
            if line is not None:
                lines.append(line)
        for line in lines:
            dd = schur.epicenter_test_dd(L, line)
            # the right side again, through the quotient algebra
            rhs = (schur.schur_multiplier_dim(L.quotient(line))
                   - subspace_intersect(derived, line).dim)
            checked += 1
            if not dd.consistent or dd.rhs != rhs:
                violations += 1
    report.add(sec, f"{lab}/all-catalog",
               "multiplier bound for central lines, equality iff inside "
               "the exterior center",
               {"checked": checked, "violations": violations},
               violations == 0)
    # pinned reference cases
    l27b = catalog.build("L27B", f)
    dd = schur.epicenter_test_dd(l27b, schur.exterior_center(l27b))
    report.add(sec, f"{lab}/L27B/exterior-center-ideal",
               "equality case at the exterior center", dd._asdict(),
               dd.lhs == dd.rhs and dd.contained)
    h1 = catalog.build("H", f, m=1)
    zline = coordinate_subspace(f, 3, [2])
    dd = schur.epicenter_test_dd(h1, zline)
    report.add(sec, f"{lab}/H(1)/center-line",
               "strict case for the capable Heisenberg algebra", dd._asdict(),
               dd.lhs > dd.rhs and not dd.contained)
    dd = schur.epicenter_test_dd(h1, zero_subspace(f, 3))
    report.add(sec, f"{lab}/H(1)/zero-ideal", "trivial ideal equality",
               dd._asdict(), dd.lhs == dd.rhs and dd.contained)


def _check_central_products(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    sec = "central_products"
    cases = [
        ("H(1)cpH(1)", catalog.build("H", f, m=1),
         catalog.build("H", f, m=1), (2, 2), catalog.build("H", f, m=2)),
        ("L4_3cpH(1)", catalog.build("L4_3", f),
         catalog.build("H", f, m=1), (3, 2), catalog.build("L6_10", f)),
    ]
    for cid, a, b, pair, want in cases:
        prod, glue = central_product(a, b, [pair], name=cid)
        fp_match = fingerprint(prod) == fingerprint(want)
        report.add(sec, f"{lab}/{cid}", "fingerprint matches the catalog "
                   "algebra", {"match": fp_match}, fp_match)
        # image of A^2 cap B^2 is nonzero and inside the exterior center
        a2 = a.derived_subalgebra()
        b2 = b.derived_subalgebra()
        img_a2 = _push(glue, a2, 0, prod)
        img_b2 = _push(glue, b2, a.dim, prod)
        overlap = subspace_intersect(img_a2, img_b2)
        inside = schur.exterior_center(prod).contains_subspace(overlap)
        report.add(sec, f"{lab}/{cid}/overlap",
                   "glued derived overlap sits in the exterior center",
                   {"dim_overlap": overlap.dim, "inside": inside},
                   overlap.dim > 0 and inside)


def _push(glue: Subspace, sub: Subspace, offset: int,
          target: LieAlgebra) -> Subspace:
    """Image in the central product `target` = (a (+) b)/glue of a subspace
    of the factor at `offset`: each row reduced mod glue and read at glue's
    non-pivot coordinates, the quotient's own rule."""
    pivots = set(glue.pivots)
    pos = {k: a for a, k in enumerate(
        k for k in range(glue.ambient_dim) if k not in pivots)}
    rows = [{pos[k]: x for k, x in glue._residual(
        {offset + c: x for c, x in row}).items()} for row in sub.rows]
    return _span_canonical(target.field, target.dim, rows)


def _check_free_algebra(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    sec = "free_algebra"
    for d, c in ((2, 4), (3, 4), (5, 3), (7, 3)):
        trees = hall_basis(d, c)
        per_degree = [sum(1 for t in trees if tree_degree(t) == k)
                      for k in range(1, c + 1)]
        witt = [witt_dimension(d, k) for k in range(1, c + 1)]
        report.add(sec, f"{lab}/hall({d},{c})",
                   "per-degree basis counts match the counting formula",
                   {"counts": per_degree, "formula": witt},
                   per_degree == witt)
    ok = True
    worst = None
    for d in range(1, 6):
        for c in range(1, 5):
            F = free_nilpotent(d, c, f)
            rep = F.algebra.validate()
            if not rep.ok:
                ok = False
                worst = (d, c, rep.violations[:3])
    report.add(sec, f"{lab}/jacobi(d<=5,c<=4)",
               "free algebras satisfy the Jacobi identity",
               {"fail": worst} if worst else {}, ok)
    F73 = free_nilpotent(7, 3, f)
    got = schur.schur_multiplier_dim(F73.algebra)
    want = witt_dimension(7, 4)
    report.add(sec, f"{lab}/multiplier(F(7,3))",
               "free class-3 multiplier equals the next Witt dimension",
               {"dim_M": got, "expected": want}, got == want)


def _check_agreement(report: VerificationReport, f: FieldSpec) -> None:
    lab = str(f)
    sec = "agreement"
    disagreements = []
    instances = 0
    for base in catalog.standard_instances(f):
        if base.derived_subalgebra().dim > 2:
            continue
        for k in range(4):
            L = plus_abelian(base, k)
            verdict = capability_structural(L)
            truth = schur.is_capable(L)
            instances += 1
            if verdict.capable != truth:
                disagreements.append(L.name)
    report.add(sec, f"{lab}/catalog-plus-abelian",
               "structural verdict equals ground truth on catalog sums",
               {"instances": instances, "disagreements": disagreements},
               not disagreements)


def _check_random_heisenberg(report: VerificationReport, f: FieldSpec,
                             seed: int) -> None:
    if f.is_rationals:
        return  # the sampler draws over finite fields only
    lab = str(f)
    sec = "random_heisenberg"
    ref_a = catalog.build("L27A", f)
    ref_b = catalog.build("L27B", f)
    m_a = schur.schur_multiplier_dim(ref_a)
    m_b = schur.schur_multiplier_dim(ref_b)
    cap_a = schur.is_capable(ref_a)
    cap_b = schur.is_capable(ref_b)
    report.add(sec, f"{lab}/reference-pair",
               "dim-7 references: capable one separated by multiplier dim",
               {"dim_M_A": m_a, "dim_M_B": m_b,
                "cap_A": cap_a, "cap_B": cap_b},
               cap_a and not cap_b and m_a != m_b)
    match_a = match_b = bad = 0
    for s in range(RANDOM_HEISENBERG_SAMPLES):
        L = catalog.random_gen_heisenberg(7, 2, f, seed + s)
        m = schur.schur_multiplier_dim(L)
        cap = schur.is_capable(L)
        if (m, cap) == (m_a, cap_a):
            match_a += 1
        elif (m, cap) == (m_b, cap_b):
            match_b += 1
        else:
            bad += 1
    report.add(sec, f"{lab}/samples",
               "every sampled pair (dim M, capable) matches a reference, "
               "capability tracking the capable reference",
               {"samples": RANDOM_HEISENBERG_SAMPLES, "match_A": match_a,
                "match_B": match_b, "violations": bad}, bad == 0)


def _check_homology_identities(report: VerificationReport,
                               f: FieldSpec) -> None:
    lab = str(f)
    sec = "homology_identities"
    bad = []
    checked = 0
    pool = list(catalog.standard_instances(f))
    pool.extend(L for L, _ in _class3_instances(f) if L not in pool)
    for L in pool:
        rep = schur.homology(L)
        checked += 1
        derived, zc = L.derived_subalgebra(), rep.exterior_center
        ok = (rep.dim_exterior_square == rep.dim_M + derived.dim
              and L.center().contains_subspace(zc)
              and (derived.is_zero or derived.contains_subspace(zc)))
        # Z^ <= L^2 holds by construction here, as every L^2 in the pool is
        # a coordinate span; the quotient by Z^ is an independent route
        if ok and not zc.is_zero:
            ok = rep.dim_M == (schur.schur_multiplier_dim(L.quotient(zc))
                               - subspace_intersect(derived, zc).dim)
        if not ok:
            bad.append(L.name)
    report.add(sec, f"{lab}/identities",
               "exterior-square dimension identity and exterior-center "
               "containments",
               {"checked": checked, "failures": bad}, not bad)
