"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every numeric expectation is exact (integer dimensions, booleans); there are
no floating-point tolerances anywhere.  Time budgets are pinned as module
constants and measured with a monotonic clock.  Frozen reference values were
computed once from independent routes (Lyndon-word enumeration, hand counts,
and the package itself cross-checked against its own full-relation-space
oracle) and are asserted literally below.

Criterion 10 runs last and re-checks the homological identities on every
instance the earlier criteria analyzed, via the module-level registry.
"""

import random
import time

from liecap import GF2, GF3, GF5, QQ, span
from liecap.catalog import (
    build,
    eps_values,
    random_gen_heisenberg,
    standard_instances,
)
from liecap.classify import (
    capability_structural,
    class3_stem_products,
    plus_abelian,
)
from liecap.cli import algebra_to_doc, doc_text
from liecap.freelie import free_nilpotent, witt_dimension
from liecap.liealg import central_product, direct_sum
from liecap.linalg import subspace_intersect
from liecap.schur import (
    epicenter_test_dd,
    exterior_center,
    homology,
    is_capable,
    schur_multiplier_dim,
)

from oracles import (Hom, epicenter_test_dd_by_intersection, lyndon_count,
                     quotient_projection_by_reduction,
                     quotient_with_projection)

ALL_FIELDS = (QQ, GF2, GF3, GF5)

# pinned budgets (seconds)
SINGLE_MULTIPLIER_BUDGET = 10.0
FREE_ALGEBRA_BUDGET = 120.0
SAMPLER_BUDGET = 1800.0

# frozen references for the two 7-dimensional rank-2 stems over GF(2)
DIM7_CAPABLE_MULTIPLIER = 9
DIM7_NON_CAPABLE_MULTIPLIER = 10

# every algebra a criterion touches lands here; criterion 10 sweeps it
_TOUCHED: dict = {}


def touch(L):
    _TOUCHED[id(L)] = L
    return L


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _center_lines(L, count, rng):
    """The center-basis lines plus `count` random central lines."""
    f = L.field
    z = L.center()
    lines = [span(f, L.dim, [row]) for row in z.basis]
    for _ in range(count):
        if z.dim == 0:
            break
        for _attempt in range(20):
            coeffs = [f.random_scalar(rng) for _ in range(z.dim)]
            vec = [f.zero] * L.dim
            for c, row in zip(coeffs, z.basis):
                for k, x in enumerate(row):
                    vec[k] = f.add(vec[k], f.mul(c, x))
            if any(x != f.zero for x in vec):
                lines.append(span(f, L.dim, [vec]))
                break
    return lines


def _push(proj, basis_rows):
    """Image of a subspace under a projection Hom, as a subspace."""
    target = proj.target
    return span(target.field, target.dim,
                [proj.apply(row) for row in basis_rows])


def test_criterion_01_rank_two_multiplier_dimensions():
    checked = []
    worst = 0.0
    for field, sweep in ((QQ, eps_values(QQ)), (GF3, eps_values(GF3))):
        for eps in sweep:
            L = touch(build("L6_22", field, eps=eps))
            t0 = time.monotonic()
            dim = schur_multiplier_dim(L)
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            checked.append((L.name, str(field), dim, dt))
    for eta in (0, 1):
        L = touch(build("L6_7_2", GF2, eta=eta))
        t0 = time.monotonic()
        dim = schur_multiplier_dim(L)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        checked.append((L.name, str(GF2), dim, dt))
    ok = (len(checked) == 4 + 3 + 2
          and all(dim == 8 for (_, _, dim, _) in checked)
          and worst < SINGLE_MULTIPLIER_BUDGET)
    report(1, "multiplier dimension 8 across both 6-dim rank-2 families",
           ok, f"{len(checked)} instances, worst {worst:.2f}s")


def test_criterion_02_class_two_capability_sets():
    expected = []  # (algebra, should_be_capable)
    for f in ALL_FIELDS:
        expected.append((build("L5_8", f), True))
        if f.characteristic == 2:
            for eta in (0, 1):
                expected.append((build("L6_7_2", f, eta=eta), True))
        else:
            for eps in eps_values(f):
                expected.append((build("L6_22", f, eps=eps), True))
        expected.append((build("L27A", f), True))
        expected.append((build("L27B", f), False))
        expected.append((build("H", f, m=2), False))
        expected.append((build("H", f, m=3), False))
    bad = [L.name for (L, want) in expected
           if is_capable(touch(L)) is not want]
    # 9 over Q, 7 over GF(2), 8 over GF(3), 9 over GF(5)
    report(2, "class-2 capability matches the expected sets over all fields",
           not bad and len(expected) == 33,
           f"{len(expected)} instances, disagreements {bad}")


def test_criterion_03_class_three_capability_and_unicentrality():
    capable, non_capable = [], []
    for f in ALL_FIELDS:
        capable.append(build("L4_3", f))
        capable.append(build("L5_5", f))
        non_capable.append(build("L6_10", f))
        prods = class3_stem_products(f)
        if f.is_rationals:
            prods = [p for p in prods if p.dim <= 7]
        non_capable.extend(prods)
    assert any(p.name == "L5_5 cp H(1)" for p in non_capable)
    wrong_cap = [L.name for L in capable if not is_capable(touch(L))]
    wrong_non = [L.name for L in non_capable if is_capable(touch(L))]
    not_unicentral = []
    for L in non_capable:
        # all of these are stems; the exterior center must be the center
        assert L.structural_profile().is_stem, L.name
        if exterior_center(L).basis != L.center().basis:
            not_unicentral.append(L.name)
    ok = not wrong_cap and not wrong_non and not not_unicentral
    report(3, "class-3 capability plus exterior-center = center on the "
              "non-capable stems", ok,
           f"{len(capable)} capable, {len(non_capable)} non-capable checked")


def test_criterion_04_quotient_witnesses_byte_exact():
    cases = [("L5_7", 4, "L4_3"), ("L6_13", 5, "L5_5")]
    mismatches = []
    for f in ALL_FIELDS:
        for src_name, kill, want_name in cases:
            src = touch(build(src_name, f))
            line = span(f, src.dim,
                        [[f.one if i == kill else f.zero
                          for i in range(src.dim)]])
            q, proj = quotient_with_projection(src, line)
            want = touch(build(want_name, f))
            touch(q)
            q_doc = algebra_to_doc(q)
            w_doc = algebra_to_doc(want)
            q_doc.pop("name", None)
            w_doc.pop("name", None)
            if doc_text(q_doc) != doc_text(w_doc) \
                    or not q.same_table(want) \
                    or not proj.is_bracket_compatible():
                mismatches.append((str(f), src_name))
    report(4, "central-line quotients reproduce the smaller tables "
              "byte-for-byte", not mismatches, f"{len(cases) * 4} quotients")


def test_criterion_05_central_ideal_bound_suite():
    checked = 0
    violations = []
    for tag, f in ((0, QQ), (1, GF2)):
        for idx, L in enumerate(standard_instances(f)):
            touch(L)
            rng = random.Random(1009 * idx + 101 * tag + 7)
            for line in _center_lines(L, 20, rng):
                dd = epicenter_test_dd(L, line)
                checked += 1
                if (not dd.consistent
                        or dd != epicenter_test_dd_by_intersection(L, line)):
                    violations.append((str(f), L.name, dd))
    report(5, "multiplier bound with equality exactly on exterior-center "
              "lines", checked > 500 and not violations,
           f"{checked} ideals, {len(violations)} violations")


def test_criterion_06_central_product_fingerprints():
    from liecap.classify import fingerprint
    failures = []
    for f in ALL_FIELDS:
        cases = [
            (build("H", f, m=1), build("H", f, m=1), (2, 2),
             build("H", f, m=2)),
            (build("L4_3", f), build("H", f, m=1), (3, 2),
             build("L6_10", f)),
        ]
        for a, b, (ia, ib), want in cases:
            prod, glue = central_product(a, b, [(ia, ib)])
            d = direct_sum(a, b)
            proj = Hom(d, prod, quotient_projection_by_reduction(d, glue))
            touch(prod)
            touch(want)
            if fingerprint(prod) != fingerprint(want):
                failures.append((str(f), want.name, "fingerprint"))
            # glued derived overlap: nonzero and inside the exterior center
            da = a.derived_subalgebra()
            db = b.derived_subalgebra()
            n = a.dim + b.dim
            a_rows = [tuple(r) + (f.zero,) * b.dim for r in da.basis]
            b_rows = [(f.zero,) * a.dim + tuple(r) for r in db.basis]
            overlap = subspace_intersect(
                _push(proj, a_rows), _push(proj, b_rows))
            if overlap.dim == 0:
                failures.append((str(f), want.name, "overlap-zero"))
            if not exterior_center(prod).contains_subspace(overlap):
                failures.append((str(f), want.name, "overlap-outside"))
    report(6, "central products match their catalog twins and glue inside "
              "the exterior center", not failures, "8 products")


def test_criterion_07_free_algebra_correctness():
    witt_cases = [(2, 4), (3, 4), (5, 3), (7, 3)]
    witt_ok = all(
        witt_dimension(d, c) == lyndon_count(d, c) for d, c in witt_cases)
    jacobi_ok = True
    for d in range(1, 6):
        for c in range(1, 5):
            if not free_nilpotent(d, c, QQ).algebra.validate().ok:
                jacobi_ok = False
    t0 = time.monotonic()
    F = free_nilpotent(7, 3, GF2)
    dim_m = schur_multiplier_dim(touch(F.algebra))
    dt = time.monotonic() - t0
    # the multiplier of the free class-3 algebra is the next graded piece
    free_ok = (F.dim == 140 and dim_m == 588
               and dim_m == witt_dimension(7, 4) == lyndon_count(7, 4))
    ok = witt_ok and jacobi_ok and free_ok and dt < FREE_ALGEBRA_BUDGET
    report(7, "Witt dimensions vs Lyndon enumeration, Jacobi on F(d<=5,c<=4), "
              "and the F(7,3) multiplier", ok,
           f"dim M(F(7,3)) = {dim_m} over GF(2) in {dt:.2f}s")


def test_criterion_08_structural_agrees_with_ground_truth():
    instances = 0
    disagreements = []
    for f in ALL_FIELDS:
        for L in standard_instances(f):
            if L.derived_subalgebra().dim > 2:
                continue  # outside the structural rules' scope
            for k in range(4):
                Lk = touch(plus_abelian(L, k))
                instances += 1
                if capability_structural(Lk).capable != is_capable(Lk):
                    disagreements.append((str(f), Lk.name, k))
    ok = instances >= 150 and not disagreements
    report(8, "structural capability equals ground truth on catalog sums",
           ok, f"{instances} instances, disagreements {disagreements}")


def test_criterion_09_randomized_dim7_rank2_corroboration():
    ref_a = homology(touch(build("L27A", GF2)))
    ref_b = homology(touch(build("L27B", GF2)))
    assert ref_a.dim_M == DIM7_CAPABLE_MULTIPLIER and ref_a.capable
    assert ref_b.dim_M == DIM7_NON_CAPABLE_MULTIPLIER and not ref_b.capable
    pair_a = (ref_a.dim_M, True)
    pair_b = (ref_b.dim_M, False)
    t0 = time.monotonic()
    tally = {pair_a: 0, pair_b: 0}
    exceptions = []
    for idx in range(200):
        L = touch(random_gen_heisenberg(7, 2, GF2, seed=48271 * idx + 11))
        hom = homology(L)
        pair = (hom.dim_M, hom.capable)
        if pair == pair_a or pair == pair_b:
            tally[pair] += 1
        else:
            exceptions.append((idx, pair))
        if hom.capable is not (hom.dim_M == DIM7_CAPABLE_MULTIPLIER):
            exceptions.append((idx, pair, "capability-multiplier mismatch"))
    dt = time.monotonic() - t0
    ok = not exceptions and sum(tally.values()) == 200 and dt < SAMPLER_BUDGET
    report(9, "200 random dim-7 rank-2 samples all land on the two "
              "reference profiles", ok,
           f"{tally[pair_a]} capable / {tally[pair_b]} not, {dt:.1f}s")


def test_criterion_10_homological_identities_everywhere():
    assert len(_TOUCHED) >= 300, "earlier criteria did not register enough"
    square_violations = []
    center_violations = []
    for L in _TOUCHED.values():
        hom = homology(L)
        derived = L.derived_subalgebra()
        if hom.dim_exterior_square != hom.dim_M + derived.dim:
            square_violations.append(L.name)
        if derived.dim > 0:  # non-abelian case
            central_derived = subspace_intersect(L.center(), derived)
            if not central_derived.contains_subspace(hom.exterior_center):
                center_violations.append(L.name)
    ok = not square_violations and not center_violations
    report(10, "exterior-square dimension identity and exterior-center "
               "containment on every touched instance", ok,
           f"{len(_TOUCHED)} instances")
