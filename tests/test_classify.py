"""Structural capability rules, fingerprints, and the verification suite."""

import random
import re

import pytest
from fractions import Fraction

from liecap import GF2, GF3, GF5, QQ, catalog, schur
from liecap.errors import NotNilpotentError, ScopeError, ShapeError
from liecap.catalog import build, random_gen_heisenberg, standard_instances
from liecap.classify import (
    ALL_RULES,
    RULE_ABELIAN,
    RULE_CLASS2_DIM7_PENCIL,
    RULE_CLASS2_STEM_DIM,
    RULE_CLASS3_CODIM,
    RULE_DERIVED_LINE,
    capability_structural,
    class3_stem_products,
    VerificationReport,
    _check_central_ideal_bound,
    _check_homology_identities,
    fingerprint,
    plus_abelian,
    verify_paper,
)
from liecap.liealg import (
    LieAlgebra,
    abelian,
    central_product,
    direct_sum,
)
from liecap.schur import is_capable

from oracles import (
    kronecker_stems,
    on_basis,
    pencils,
    random_pencil_stem,
    stem_decompose,
)


# ----------------------------------------------------------------------
# structural verdicts, rule by rule
# ----------------------------------------------------------------------

def test_abelian_rule():
    v1 = capability_structural(abelian(QQ, 1))
    assert not v1.capable and v1.rule == RULE_ABELIAN
    for n in (2, 3, 5):
        v = capability_structural(abelian(GF2, n))
        assert v.capable and v.family_label == f"A({n})"


def test_zero_algebra_out_of_scope():
    with pytest.raises(ScopeError):
        capability_structural(abelian(QQ, 0))


def test_derived_line_rule():
    v = capability_structural(build("H", QQ, m=1))
    assert v.capable and v.rule == RULE_DERIVED_LINE
    assert v.family_label == "H(1)"
    for m in (2, 3):
        v = capability_structural(build("H", GF3, m=m))
        assert not v.capable
    v = capability_structural(plus_abelian(build("H", QQ, m=1), 3))
    assert v.capable and v.family_label == "H(1) + A(3)"
    v = capability_structural(plus_abelian(build("H", QQ, m=2), 1))
    assert not v.capable and v.family_label == "H(2) + A(1)"


def test_class3_codim_rule():
    v = capability_structural(build("L4_3", QQ))
    assert v.capable and v.rule == RULE_CLASS3_CODIM
    assert v.family_label == "L4_3"
    v = capability_structural(plus_abelian(build("L5_5", GF5), 2))
    assert v.capable and v.family_label == "L5_5 + A(2)"
    v = capability_structural(build("L6_10", QQ))
    assert not v.capable and v.rule == RULE_CLASS3_CODIM


def test_class2_stem_dimension_rule():
    v = capability_structural(build("L5_8", QQ))
    assert v.capable and v.rule == RULE_CLASS2_STEM_DIM
    assert v.family_label == "L5_8"
    v = capability_structural(build("L6_22", QQ, eps=1))
    assert v.capable and v.family_label == "L6_22(*)"
    v = capability_structural(build("L6_7_2", GF2, eta=0))
    assert v.capable and v.family_label == "L6_7_2(*)"
    v = capability_structural(plus_abelian(build("L5_8", GF2), 2))
    assert v.capable and v.family_label == "L5_8 + A(2)"


def test_dim7_stems_by_pencil_rank():
    # L27A's pencil system has 14 unknowns and a kernel of 2 dim Z(L) = 4;
    # L27B's block of minimal index 1 adds one to the kernel, and a tail
    # A(k) adds 2k unknowns and 2k to the kernel
    va = capability_structural(build("L27A", QQ))
    assert va.capable and va.rule == RULE_CLASS2_DIM7_PENCIL
    assert va.family_label == "L27A"
    assert va.detail == "stem dimension 7, pencil rank 10 of 10"
    vb = capability_structural(plus_abelian(build("L27B", QQ), 2))
    assert not vb.capable and vb.rule == RULE_CLASS2_DIM7_PENCIL
    assert vb.family_label == "L27B + A(2)"
    assert vb.detail == "stem dimension 7, pencil rank 9 of 10"


def test_dim8_rank2_stem_is_non_capable_both_routes():
    # three commuting generator pairs sharing two central targets: a
    # stem, class-2, rank-2 algebra of dimension 8
    f = GF2
    table = {(0, 1): {6: f.one}, (2, 3): {7: f.one},
             (4, 5): {6: f.one, 7: f.one}}
    L = LieAlgebra(f, 8, table, name="genH(dim=8,rank=2)")
    assert L.validate().ok
    p = L.structural_profile()
    assert p.is_stem and p.gen_heisenberg_rank == 2
    v = capability_structural(L)
    assert not v.capable and v.rule == RULE_CLASS2_STEM_DIM
    assert not is_capable(L)


@pytest.mark.parametrize("f, lambdas", [
    (GF2, range(2)), (GF3, range(3)), (GF5, range(5)),
    (QQ, (0, -1, Fraction(1, 2))),
], ids=["GF2", "GF3", "GF5", "Q"])
def test_stems_built_from_kronecker_blocks(f, lambdas):
    # the paper: a class-2 stem with dim L^2 = 2 is capable only up to
    # dimension 7.  Random pencils are almost always regular, so the stems
    # here are built block by block (singular blocks L_e and regular R_lam)
    # and checked in the block basis and in a random one (ungraded)
    rng = random.Random(11)
    large = 0
    for blocks, L in kronecker_stems(f, lambdas, 12):
        n = L.dim
        P = [[1 if i == j else rng.randint(0, 1) if j > i else 0
              for j in range(n)] for i in range(n)]
        for M in (L, on_basis(L, P)[1]):
            v = capability_structural(M)
            assert v.capable == is_capable(M), (L.name, M is L)
            if n >= 8:
                assert not v.capable, L.name
            elif n == 7:
                assert v.family_label == (
                    "L27A" if blocks == (("L", 2),) else "L27B"), L.name
        large += n >= 8
    assert large >= 40


def _class2_rank2_cases():
    """Catalog class-2 algebras with dim L^2 = 2 plus A(0..3) on either
    side, over four fields, 50 sampled dim-7 stems per finite field with
    A(s mod 3) on alternating sides, and L27A, L27B with A(60), whose
    exterior square is past the wedge route's size guard."""
    for f in (QQ, GF2, GF3, GF5):
        for base in standard_instances(f):
            if (base.derived_subalgebra().dim != 2
                    or base.nilpotency_class() != 2):
                continue
            for k in range(4):
                yield plus_abelian(base, k)
                yield direct_sum(abelian(f, k), base)
    for f in (GF2, GF3, GF5):
        for s in range(50):
            L = random_gen_heisenberg(7, 2, f, seed=s)
            A = abelian(f, s % 3)
            yield direct_sum(L, A) if s % 2 else direct_sum(A, L)
    for f in (QQ, GF2):
        for base in ("L27A", "L27B"):
            yield plus_abelian(build(base, f), 60)
            yield direct_sum(abelian(f, 60), build(base, f))


def test_class2_stem_dimension_is_the_stem_decompositions():
    dims = set()
    for L in _class2_rank2_cases():
        v = capability_structural(L)
        T = stem_decompose(L).T
        assert re.match(r"stem dimension (\d+)", v.detail)[1] \
            == str(T.dim), (L.field, L.name)
        if T.dim == 7:
            assert v.capable == is_capable(T), (L.field, L.name)
        dims.add(T.dim)
    assert dims == {5, 6, 7}


def test_structural_rules_call_nothing_in_schur(monkeypatch):
    """With schur's wedge route, exterior center and capability made to
    raise, every class-2 case above, L27A and L27B with A(60) among them,
    and every catalog sum with A(k), k <= 3, still get their verdicts, and
    those equal the ground truth: of the stem T for the class-2 cases,
    since T (+) A(60) is past the wedge route's size guard."""
    cases = list(_class2_rank2_cases())
    sums = [plus_abelian(base, k) for f in (QQ, GF2, GF3, GF5)
            for base in standard_instances(f)
            if base.derived_subalgebra().dim <= 2 for k in range(4)]
    want = ([is_capable(stem_decompose(L).T) for L in cases]
            + [is_capable(L) for L in sums])

    def refuse(*args):
        raise AssertionError("the structural rules called schur")

    for name in ("_wedge", "exterior_center", "is_capable"):
        monkeypatch.setattr(schur, name, refuse)
    assert [capability_structural(L).capable for L in cases + sums] == want


# ----------------------------------------------------------------------
# the pencil rule on pencils of alternating forms
# ----------------------------------------------------------------------

def test_every_pencil_on_at_most_four_generators_over_gf2_is_capable():
    # stem dimension at most 6: the pencil rule is not reached, and every
    # verdict is capable, as the paper says
    for d, count in ((2, 0), (3, 7), (4, 651)):
        algebras = list(pencils(GF2, d))
        assert len(algebras) == count
        for L in algebras:
            assert capability_structural(L).capable and is_capable(L)


def _rebased_off_pivots(L, rng):
    """L on a random basis, redrawn until L^2's canonical rows are nonzero
    off their pivots."""
    f, n = L.field, L.dim
    while True:
        P = [[f.coerce(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        try:
            L2 = on_basis(L, P)[1]
        except ShapeError:
            continue  # P is singular
        der = L2.derived_subalgebra()
        if any(x for row in der.basis
               for c, x in enumerate(row) if c not in der.pivots):
            return L2


def _dim7_stem_samples():
    """Sampled dim-7 class-2 stems with dim L^2 = 2 over four fields, half
    of them with a member of rank 2 (L27B type), each with A(s mod 3) on
    alternating sides, and rebased over Q and GF(3)."""
    rng = random.Random(2017)
    for f in (QQ, GF2, GF3, GF5):
        for s in range(24):
            T = random_pencil_stem(f, rng, decomposable=s % 2 == 1)
            A = abelian(f, s % 3)
            L = direct_sum(T, A) if s % 4 < 2 else direct_sum(A, T)
            if f in (QQ, GF3):
                L = _rebased_off_pivots(L, rng)
            yield f, L


def test_pencil_rule_matches_ground_truth_on_sampled_dim7_stems():
    seen = set()
    for f, L in _dim7_stem_samples():
        v = capability_structural(L)
        assert v.rule == RULE_CLASS2_DIM7_PENCIL, (f, v)
        assert v.capable == is_capable(L), (f, L.table)
        seen.add((str(f), v.capable))
    assert seen == {(str(f), c) for f in (QQ, GF2, GF3, GF5)
                    for c in (True, False)}


def test_scope_guard_for_larger_derived_subalgebra():
    with pytest.raises(ScopeError):
        capability_structural(build("L5_7", QQ))
    with pytest.raises(ScopeError):
        capability_structural(build("L6_13", GF2))


def test_non_nilpotent_rejected():
    S = LieAlgebra(QQ, 2, {(0, 1): {1: Fraction(1)}})
    with pytest.raises(NotNilpotentError):
        capability_structural(S)


def test_rules_are_registered():
    for L in (abelian(QQ, 2), build("H", QQ, m=1), build("L4_3", QQ),
              build("L5_8", QQ), build("L27A", QQ)):
        v = capability_structural(L)
        assert v.rule in ALL_RULES


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def test_fingerprint_of_four_dim_chain():
    fp = fingerprint(build("L4_3", QQ))
    assert fp.nilpotency_class == 3
    assert fp.lower_dims == (4, 2, 1, 0)
    assert fp.dim_multiplier == 2
    assert fp.is_stem and fp.is_maximal_class


def test_fingerprint_abelian_multiplier_formula():
    for n in (1, 3, 5):
        fp = fingerprint(abelian(GF3, n))
        assert fp.dim_multiplier == n * (n - 1) // 2


def test_fingerprints_separate_the_two_dim7_stems():
    # every coarse invariant agrees and only the homology side separates;
    # capability_structural tells them apart by the rank of their pencil
    fa = fingerprint(build("L27A", GF2))
    fb = fingerprint(build("L27B", GF2))
    assert fa != fb
    assert fa.dim_exterior_center == 0
    assert fb.dim_exterior_center > 0
    assert fa.dim_multiplier != fb.dim_multiplier
    homology = {"dim_multiplier", "dim_exterior_square",
                "dim_exterior_center", "capable"}
    assert {k: v for k, v in vars(fa).items() if k not in homology} \
        == {k: v for k, v in vars(fb).items() if k not in homology}


def test_fingerprint_matches_across_isomorphic_presentations():
    prod, _ = central_product(build("H", QQ, m=1), build("H", QQ, m=1),
                              [(2, 2)])
    assert fingerprint(prod) == fingerprint(build("H", QQ, m=2))


def test_fingerprint_is_repeatable():
    L = build("L5_5", GF2)
    assert fingerprint(L) == fingerprint(L)


# ----------------------------------------------------------------------
# helper constructions
# ----------------------------------------------------------------------

def test_plus_abelian_dims_and_tables():
    L = build("L4_3", QQ)
    assert plus_abelian(L, 0) is L
    assert plus_abelian(L, 2).dim == 6
    assert plus_abelian(L, 2).same_table(plus_abelian(L, 2))


def test_class3_stem_products_shapes():
    prods = class3_stem_products(GF2)
    assert [p.dim for p in prods] == [6, 8, 7, 9]
    for p in prods:
        assert p.nilpotency_class() == 3
        assert p.structural_profile().is_stem
        assert p.validate().ok
    assert prods[0].same_table(build("L6_10", GF2))


def test_field_labels():
    assert str(QQ) == "Q"
    assert str(GF2) == "GF(2)"
    assert str(GF5) == "GF(5)"


# ----------------------------------------------------------------------
# structural vs ground truth on a small sweep
# ----------------------------------------------------------------------

def test_agreement_on_catalog_sample_gf2():
    for L in standard_instances(GF2):
        if L.derived_subalgebra().dim > 2:
            continue  # out of the structural rules' scope
        assert capability_structural(L).capable == is_capable(L), L.name


# ----------------------------------------------------------------------
# the bundled verification suite (reduced run)
# ----------------------------------------------------------------------

def test_verification_suite_reduced_run_passes():
    rep = verify_paper(fields=(GF2,), seed=0)
    assert rep.all_passed
    total, failed = rep.counts
    assert failed == 0 and total > 40
    ids = [c.check_id for cs in rep.sections.values() for c in cs]
    assert any("unicentral" in i for i in ids)
    assert any("L6_7_2" in i for i in ids)
    # deterministic ordering
    rep2 = verify_paper(fields=(GF2,), seed=0)
    assert [c.check_id for cs in rep2.sections.values() for c in cs] == ids


@pytest.fixture
def fresh_catalog():
    """Empty the cache of catalog.build before and after a test, so no
    algebra keeps cache entries from another test or leaves its own."""
    catalog.build.cache_clear()
    yield
    catalog.build.cache_clear()


def test_central_ideal_bound_check_catches_a_wrong_rank(monkeypatch,
                                                         fresh_catalog):
    """A rank one too high wherever it is nonzero keeps DDResult.consistent
    true (the right side stays below the left, and such an I lies outside
    the exterior center), so only the right side taken through the
    quotient algebra catches it."""
    rank = schur._central_wedge_rank
    calls = []

    def off_by_one(L, I):
        r = rank(L, I)
        calls.append(r)
        return r + 1 if r else r

    monkeypatch.setattr(schur, "_central_wedge_rank", off_by_one)
    rep = VerificationReport(["GF(2)"], 0)
    _check_central_ideal_bound(rep, GF2, 0)
    catalog_check = rep.sections["central_ideal_bound"][0]
    assert catalog_check.check_id == "GF(2)/all-catalog"
    assert any(calls)
    assert not catalog_check.passed


def test_homology_identities_check_catches_a_wrong_exterior_center(
        monkeypatch, fresh_catalog):
    """An exterior center read as Z(L) keeps both containments true on
    H(1), where Z(L) = L^2; only the quotient route catches it:
    dim M(L/Z) - dim(L^2 cap Z) = 1 - 1 = 0, not dim M(H(1)) = 2."""
    h1 = build("H", GF2, m=1)
    assert h1.derived_subalgebra() == h1.center()
    monkeypatch.setattr(schur, "exterior_center", lambda L: L.center())
    rep = VerificationReport(["GF(2)"], 0)
    _check_homology_identities(rep, GF2)
    check, = rep.sections["homology_identities"]
    assert not check.passed
    assert h1.name in check.values["failures"]


def test_verification_report_serialization():
    rep = verify_paper(fields=(GF2,), seed=0)
    js = rep.to_json()
    assert js["all_passed"] is True
    assert js["failed_checks"] == 0
    assert js["total_checks"] == rep.counts[0]
    assert js["fields"] == ["GF(2)"]
    text = rep.to_text()
    assert "[PASS]" in text and "[FAIL]" not in text
    assert text.strip().endswith("checks passed")
