"""Multiplier, exterior square, and exterior center, by the wedge route
(Lambda^2 L / im d3), with free presentations as the oracle.

The presentation route in `oracles` is the ground-truth oracle for the
wedge route: both are compared by exact equality of dim M, dim L^L and the
canonical exterior-center basis on the catalog, its abelian sums on either
side, the class-3 stem products, sampled algebras, generated F(d,c)/W,
rebased algebras and graded algebras whose index order does not follow
degree.  Property tests check that a change of basis and a direct sum move
the invariants as they must.  The degree cut is checked on the number of
columns `_wedge` reduces, the pairs of degree <= c+1, which for Hall bases
is fewer than C(n,2); the zero algebra takes the same path, with no
columns and no generator residuals.

The presentation oracle has independent in-suite oracles too:
`commutator_full_route` recomputes the commutator subspace by bracketing R
with the whole Hall basis, and `exterior_center_all_pairs` recomputes the
exterior center by bracketing every pair of lifted basis vectors, where
the oracle brackets with the free generators only; R cap F^2, which the
multiplier formula never builds, is intersected here and checked against
dim F^2 - dim L^2; and presentations built from reordered or L^2-shifted
generator images change the chosen section, which the reported invariants
must not see.  A property test compares the exterior center with the
all-pairs oracle on generated algebras F(d,c)/W.  The same generators,
with catalog algebras plus A(k) on either side, check the center, the
upper central series and the minimal generators against the routes the
package used before they were read off one reduction: quotient algebras
for the series, and `complement_in` for the generators.  The quotient's
table, the glue ideal `central_product` returns with the images
`classify._push` reads off it, and the central-ideal bound, read off L's
own exterior square as dim M(L) - rank(L ^ I mod J), are compared with
the routes kept in `oracles`: the kept pairs bracketed, each e_k reduced
mod the ideal, and dim M(L/I) - dim(L^2 cap I) from the quotient algebra
and an intersection, on graded and rebased bases.  The bound's cache is checked
the same way: an ideal given again by another spanning set matches the
oracle on a fresh algebra, no quotient is built, the rank is taken once
per canonical ideal, and every call still checks its input.  The exterior
center, solved only over the support of L^2, is compared byte for byte
with `exterior_center_whole_kernel`, the same kernel over all of L, on
bases where L^2's canonical rows are nonzero off their pivots and on the
algebras with at most one generator or L^2 = 0; a residual table that
records its reads shows that no residual outside the support is read.
Algebras that share one degree vector share one pair layout whatever
their table and field, and each still matches the whole kernel and the
presentation oracle; a degree vector past the size guard raises on every
call, not only the first.
"""

import pytest
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb
from random import Random
from hypothesis import example, given, settings, strategies as st

from liecap import GF2, GF3, GF5, QQ, span
from liecap.errors import (
    EngineError,
    NotIdealError,
    NotNilpotentError,
    ResourceError,
    ScopeError,
    ShapeError,
)
from liecap.catalog import build, random_gen_heisenberg, standard_instances
from liecap.classify import (
    VerificationReport,
    _check_central_ideal_bound,
    _check_quotient_witnesses,
    _push,
    capability_structural,
    class3_stem_products,
    plus_abelian,
)
from liecap.freelie import DEFAULT_MAX_DIM, free_dimension, free_nilpotent
from liecap.liealg import (
    LieAlgebra,
    abelian,
    central_product,
    direct_sum,
    minimal_generators,
)
from liecap.linalg import (
    _kernel_canonical,
    coordinate_subspace,
    subspace_intersect,
    zero_subspace,
)
from liecap import linalg, schur
from liecap.schur import (
    _wedge,
    epicenter_test_dd,
    exterior_center,
    exterior_square_dim,
    homology,
    is_capable,
    schur_multiplier_dim,
)

from oracles import (
    apply_rows,
    brute_force_multiplier_dim_abelian,
    commutator_full_route,
    complement_in,
    epicenter_test_dd_by_intersection,
    exterior_center_all_pairs,
    exterior_center_from,
    exterior_center_whole_kernel,
    free_presentation,
    lower_central_series_loop,
    lyndon_count,
    on_basis,
    present,
    quotient_projection_by_reduction,
    quotient_table_by_kept_pairs,
    upper_central_series_by_quotients,
)


def relations_in_F2(pres):
    """R cap F^2, the numerator of Hopf's formula."""
    F2 = coordinate_subspace(pres.L.field, pres.dim_F,
                             range(pres.F.d, pres.dim_F))
    return subspace_intersect(pres.R, F2)


# ----------------------------------------------------------------------
# presentation shapes
# ----------------------------------------------------------------------

def test_abelian_presentation_has_all_quadratic_relations():
    for n in (2, 3, 4):
        A = abelian(QQ, n)
        pres = free_presentation(A)
        assert pres.dim_F == n + n * (n - 1) // 2
        # R is exactly the span of the non-generator coordinates
        expected = coordinate_subspace(QQ, pres.dim_F,
                                       range(n, pres.dim_F))
        assert pres.R.basis == expected.basis
        assert pres.RF.dim == 0
        assert relations_in_F2(pres).basis == pres.R.basis


def test_heisenberg_presentation_shape():
    pres = free_presentation(build("H", QQ, m=1))
    assert pres.dim_F == 5  # two generators, class cap 3
    assert pres.R.dim == 2
    assert pres.RF.dim == 0
    assert relations_in_F2(pres).basis == pres.R.basis


def test_chain_presentation_shape():
    pres = free_presentation(build("L4_3", QQ))
    assert pres.dim_F == 8  # two generators, class cap 4
    assert pres.R.dim == 4


def test_presentation_projection_is_a_section_pair():
    for f in (QQ, GF2):
        L = build("L5_5", f)
        pres = free_presentation(L)
        assert pres.pi.is_bracket_compatible()
        assert pres.pi.image().dim == L.dim
        assert pres.pi.kernel().basis == pres.R.basis
        # pi after the section is the identity on L
        for j in range(L.dim):
            e = L.basis_vector(j)
            assert pres.pi.apply(apply_rows(f, pres.section, e)) == e


def test_presentation_is_cached_per_algebra():
    L = build("L5_8", QQ)
    assert free_presentation(L) is free_presentation(L)


def test_presentation_rejects_non_nilpotent():
    S = LieAlgebra(QQ, 2, {(0, 1): {1: Fraction(1)}})
    with pytest.raises(NotNilpotentError):
        free_presentation(S)


# ----------------------------------------------------------------------
# commutator subspace: fast route vs full-relation-space route
# ----------------------------------------------------------------------

def test_commutator_shortcut_agrees_with_full_route():
    cases = [
        build("H", QQ, m=1), build("H", QQ, m=2),
        build("L4_3", QQ), build("L5_5", QQ), build("L5_7", QQ),
        build("L5_8", QQ), build("L6_22", QQ, eps=1),
        build("H", GF2, m=2), build("L6_7_2", GF2, eta=1),
        build("L5_5", GF3), build("L6_22", GF5, eps=2),
        direct_sum(build("H", QQ, m=1), abelian(QQ, 2)),
    ]
    for L in cases:
        pres = free_presentation(L)
        full = commutator_full_route(pres.F, pres.R)
        assert full.basis == pres.RF.basis, L.name
        rcap = relations_in_F2(pres)
        assert rcap.dim == pres.dim_F2 - L.derived_subalgebra().dim, L.name
        assert rcap.dim - full.dim == schur_multiplier_dim(L), L.name


def test_commutator_sits_inside_quadratic_relations():
    for L in (build("L4_3", QQ), build("L6_10", GF3),
              build("L6_13", QQ), build("L27A", GF2)):
        pres = free_presentation(L)
        assert relations_in_F2(pres).contains_subspace(pres.RF), L.name


# ----------------------------------------------------------------------
# multiplier dimensions
# ----------------------------------------------------------------------

def test_multiplier_abelian_matches_pair_count():
    for f in (QQ, GF2, GF5):
        for n in range(7):
            assert schur_multiplier_dim(abelian(f, n)) == \
                brute_force_multiplier_dim_abelian(n), (f, n)


def test_multiplier_of_six_dim_rank_two_family():
    assert schur_multiplier_dim(build("L6_22", QQ, eps=0)) == 8
    assert schur_multiplier_dim(build("L6_22", QQ, eps=1)) == 8
    assert schur_multiplier_dim(build("L6_7_2", GF2, eta=0)) == 8


def test_multiplier_known_small_values():
    assert schur_multiplier_dim(build("H", QQ, m=1)) == 2
    assert schur_multiplier_dim(build("H", QQ, m=2)) == 5
    assert schur_multiplier_dim(build("H", QQ, m=3)) == 14
    assert schur_multiplier_dim(build("L4_3", QQ)) == 2
    assert schur_multiplier_dim(abelian(QQ, 0)) == 0


# ----------------------------------------------------------------------
# exterior square
# ----------------------------------------------------------------------

def test_exterior_square_dims():
    assert exterior_square_dim(abelian(QQ, 2)) == 1
    assert exterior_square_dim(build("H", QQ, m=1)) == 3
    assert exterior_square_dim(build("L6_22", QQ, eps=1)) == 10


def test_exterior_square_identity_everywhere():
    for f in (QQ, GF2):
        for L in (build("H", f, m=2), build("L5_7", f),
                  build("L6_10", f), abelian(f, 4)):
            assert exterior_square_dim(L) == (
                schur_multiplier_dim(L) + L.derived_subalgebra().dim)


# ----------------------------------------------------------------------
# exterior center and capability
# ----------------------------------------------------------------------

def test_exterior_center_nonzero_for_larger_dim7_algebra():
    assert exterior_center(build("L27B", QQ)).dim > 0
    assert not is_capable(build("L27B", QQ))


def test_exterior_center_of_line_is_the_line():
    A = abelian(QQ, 1)
    assert exterior_center(A).dim == 1
    assert not is_capable(A)


def test_exterior_center_of_plane_is_zero():
    assert exterior_center(abelian(QQ, 2)).dim == 0
    assert is_capable(abelian(QQ, 2))


def test_exterior_center_of_genus_two_heisenberg_is_derived():
    H2 = build("H", QQ, m=2)
    zc = exterior_center(H2)
    assert zc.basis == H2.derived_subalgebra().basis
    assert zc.dim == 1


def test_capability_small_cases():
    assert is_capable(build("L5_8", QQ))
    assert is_capable(build("L27A", QQ))
    assert is_capable(build("L4_3", QQ))
    assert is_capable(build("L5_5", QQ))
    assert not is_capable(build("L6_10", QQ))
    assert not is_capable(build("H", QQ, m=2))


def test_exterior_center_is_central_and_in_derived():
    for L in (build("H", GF2, m=3), build("L27B", GF2),
              build("L6_10", QQ)):
        zc = exterior_center(L)
        assert L.center().contains_subspace(zc)
        assert L.derived_subalgebra().contains_subspace(zc)


def test_generator_exterior_center_agrees_with_all_pairs():
    # Sums with A(1), A(2) only where dim L^2 <= 2 and class-3 products over
    # Q only up to dim 7, to bound the oracle's n^2 cover brackets; the
    # presentations of the rest are checked against the wedge route in
    # test_wedge_route_agrees_with_presentation.
    cases = []
    for f in (QQ, GF2, GF3, GF5):
        for L in standard_instances(f):
            ks = range(3) if L.derived_subalgebra().dim <= 2 else range(1)
            cases += [plus_abelian(L, k) for k in ks]
        cases += [P for P in class3_stem_products(f)
                  if not (f.is_rationals and P.dim > 7)]
        if not f.is_rationals:
            cases += [random_gen_heisenberg(7, 2, f, seed=s)
                      for s in range(20)]
    for L in cases:
        pres = free_presentation(L)
        assert (exterior_center_from(pres).basis
                == exterior_center_all_pairs(pres).basis), (L.field, L.name)


@st.composite
def _top_degree_quotients(draw):
    """F(d,c)/W for a random subspace W of the top degree.  W is central,
    so every choice is an ideal and the quotient is nilpotent."""
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    d = draw(st.sampled_from([2, 3]))
    c = draw(st.sampled_from([2, 3]))
    F = free_nilpotent(d, c, f)
    top = [i for i, dg in enumerate(F.degrees) if dg == c]
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)
    coeffs = draw(st.lists(st.lists(entry, min_size=len(top),
                                    max_size=len(top)),
                           max_size=len(top)))
    rows = []
    for cs in coeffs:
        row = [0] * F.dim
        for i, a in zip(top, cs):
            row[i] = a
        rows.append(row)
    L = F.algebra.quotient(span(f, F.dim, rows))
    return L


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_top_degree_quotients())
def test_exterior_invariants_on_generated_algebras(L):
    pres = free_presentation(L)
    zc = exterior_center_from(pres)
    assert zc.basis == exterior_center_all_pairs(pres).basis
    derived = L.derived_subalgebra()
    assert subspace_intersect(L.center(), derived).contains_subspace(zc)
    assert exterior_square_dim(L) == schur_multiplier_dim(L) + derived.dim
    wedge, presented = both_routes(L)
    assert wedge == presented


# ----------------------------------------------------------------------
# rows the library builds without coercing their entries again
# ----------------------------------------------------------------------

def assert_canonical_scalar(f, x):
    """x is of the canonical type: Fraction over Q, int in [0, p) over
    GF(p), so coercing it changes nothing."""
    if f.is_rationals:
        assert type(x) is Fraction, (f, x)
    else:
        assert type(x) is int and 0 <= x < f.p, (f, x)


def assert_canonical(f, ncols, rows):
    """Every row has ncols entries, each canonical."""
    for row in rows:
        assert len(row) == ncols, (f, ncols, row)
        for x in row:
            assert_canonical_scalar(f, x)


def assert_canonical_sparse(f, ncols, rows):
    """Every row is a {column: scalar} dict with int columns in
    range(ncols) and nonzero canonical scalars."""
    for row in rows:
        assert type(row) is dict, (f, row)
        for c, x in row.items():
            assert type(c) is int and 0 <= c < ncols, (f, ncols, row)
            assert x != 0, (f, row)
            assert_canonical_scalar(f, x)


def test_library_built_rows_are_canonical(monkeypatch):
    # every row handed to _span_canonical() and _kernel_canonical(): the
    # derived subalgebras and bracket subspaces, the exterior-center
    # constraints, the centers and the upper central series; and, dense,
    # the glue ideal `central_product` returns and the presentation
    # oracle's projection and section
    handed = []

    def recording(reduce):
        def wrapper(f, ncols, rows):
            rows = list(rows)
            handed.append((reduce.__name__, f, ncols, rows))
            return reduce(f, ncols, rows)
        return wrapper

    span_c = recording(linalg._span_canonical)
    kernel_c = recording(_kernel_canonical)
    monkeypatch.setattr(linalg, "_span_canonical", span_c)
    monkeypatch.setattr(linalg, "_kernel_canonical", kernel_c)
    monkeypatch.setattr(schur, "_kernel_canonical", kernel_c)
    for f in (QQ, GF2, GF3):
        cases = [free_nilpotent(d, c, f).algebra
                 for d in (2, 3) for c in (2, 3)]
        cases += standard_instances(f)
        for L in cases:
            pres = free_presentation(L)
            # a fresh copy, so its exterior center, center and series are
            # computed here
            copy = LieAlgebra(f, L.dim, L.table, name=L.name)
            handed.clear()
            exterior_center(copy)
            # the exterior-center constraints reach the recorded kernel,
            # so the check below is not vacuous for them
            assert any(name == "_kernel_canonical" for name, *_ in handed), (
                f, L.name)
            copy.upper_central_series()
            copy.bracket_subspaces(copy.full_space(), copy.full_space())
            assert {name for name, *_ in handed} == {
                "_span_canonical", "_kernel_canonical"}, (f, L.name)
            z = copy.center().basis[0]
            d = direct_sum(copy, copy)
            _, glue = central_product(copy, copy, [(z, z)])
            for args in [(f, pres.dim_F, pres.pi.rows),
                         (f, L.dim, pres.section), (f, d.dim, glue.basis)]:
                assert_canonical(*args)
            for _, *args in handed:
                assert_canonical_sparse(*args)


def test_subspaces_of_l_need_no_dense_gf_reduction(monkeypatch):
    # rref_rows, and numpy's _rref_gf behind it, are left only behind
    # span(), for rows from outside.  The invariants below, the quotient,
    # the intersection and two verify-paper sections build their rows
    # sparse, so they must answer on every field with both gone; the
    # algebras and the ideal are built first, since span still reaches them
    cases = []
    for f in (QQ, GF2, GF3):
        for L in (build("L5_5", f), free_nilpotent(2, 3, f).algebra):
            I = span(f, L.dim, [L.center().basis[0]])
            cases.append((LieAlgebra(f, L.dim, L.table, name=L.name), I,
                          invariants(L, I)))
    assert build("L5_5", GF2).degrees() is None  # ungraded
    reports = {f: verification_sections(f) for f in (QQ, GF2, GF3)}

    def forbidden(*args):
        pytest.fail("rref_rows reduced rows the library built sparse")

    for name in ("rref_rows", "_rref_gf"):
        monkeypatch.setattr(linalg, name, forbidden)
    for copy, I, want in cases:
        assert invariants(copy, I) == want, copy.name
    for f, want in reports.items():
        got = verification_sections(f)
        assert got.all_passed and got.to_json() == want.to_json(), f


def invariants(L, I):
    return (homology(L), L.center(), L.upper_central_series(),
            L.derived_subalgebra(), L.lower_central_series(),
            epicenter_test_dd(L, I), L.quotient(I).table,
            subspace_intersect(L.derived_subalgebra(), I))


def verification_sections(f):
    """The central-ideal bound and quotient-witness sections of
    verify-paper over f, on algebras built fresh."""
    report = VerificationReport([str(f)], 0)
    _check_central_ideal_bound(report, f, 0)
    _check_quotient_witnesses(report, f)
    return report


# ----------------------------------------------------------------------
# the wedge route against the presentation route
# ----------------------------------------------------------------------

def both_routes(L):
    """(dim L^L, dim M, Z^ basis, Z^ pivots) from the wedge route and from
    the presentation oracle on the minimal generators (`free_presentation`
    is `present(L, images)` for those images, cached on L)."""
    der = L.derived_subalgebra().dim
    zc = exterior_center(L)
    pres = free_presentation(L)
    zp = exterior_center_from(pres)
    return ((exterior_square_dim(L), schur_multiplier_dim(L), zc.basis,
             zc.pivots),
            (pres.dim_F2 - pres.RF.dim, pres.dim_F2 - der - pres.RF.dim,
             zp.basis, zp.pivots))


def test_wedge_route_agrees_with_presentation():
    cases = []
    for f in (QQ, GF2, GF3, GF5):
        for L in standard_instances(f):
            cases += [plus_abelian(L, k) for k in range(3)]
            cases.append(direct_sum(abelian(f, 2), L))
        cases += list(class3_stem_products(f))
        if not f.is_rationals:
            cases += [random_gen_heisenberg(7, 2, f, seed=s)
                      for s in range(20)]
    for L in cases:
        wedge, presented = both_routes(L)
        assert wedge == presented, (L.field, L.name, L.dim)


# ----------------------------------------------------------------------
# the degree cut and the input boundary
# ----------------------------------------------------------------------

def test_degree_cut_taken_for_hall_bases():
    # pairs of total degree <= c+1, against C(n,2) without the cut
    for d, c, f, cols in ((7, 3, GF2, 1162), (5, 3, QQ, 305),
                          (4, 4, GF3, 485), (3, 5, QQ, 343)):
        F = free_nilpotent(d, c, f)
        assert F.algebra.degrees() == F.degrees
        assert _wedge(F.algebra).ncols == cols < comb(F.dim, 2)


def test_free_algebra_homology_against_lyndon_counts():
    # M(F(d,c)) is the degree-(c+1) part of the free Lie algebra, F(d,c)
    # is capable, and dim F^2 counts the Lyndon words of length 2..c
    for f in (QQ, GF2, GF3):
        for d, c in ((2, 3), (3, 3), (2, 4), (3, 4)):
            F = free_nilpotent(d, c, f)
            L = F.algebra
            assert L.degrees() == F.degrees
            h = homology(L)
            dim_F2 = sum(lyndon_count(d, k) for k in range(2, c + 1))
            assert h.dim_M == lyndon_count(d, c + 1), (f, d, c)
            assert h.dim_exterior_square == h.dim_M + dim_F2, (f, d, c)
            assert h.exterior_center.is_zero, (f, d, c)


def test_degree_cut_taken_for_catalog_sums_not_for_l5_5():
    # L5_5: [x1,x3] = x5 and [x2,x4] = x5 give x5 degrees 3 and 2
    for f in (QQ, GF2, GF3, GF5):
        for L in standard_instances(f):
            graded = L.name not in ("L5_5", "L6_10", "L6_13")
            for k in range(3):
                for Lk in (plus_abelian(L, k), direct_sum(abelian(f, k), L)):
                    deg = Lk.degrees()
                    assert (deg is not None) == graded, (f, Lk.name)
                    # ungraded: every pair
                    deg = deg or (0,) * Lk.dim
                    cut = Lk.nilpotency_class() + 1
                    assert _wedge(Lk).ncols == sum(
                        1 for i in range(Lk.dim) for j in range(i)
                        if deg[i] + deg[j] <= cut), (f, Lk.name)


def test_product_plus_abelian_past_the_cover_guard():
    # F(10, 4), the presentation cover of L5_5 cp H(2) + A(3), has
    # dimension 2860 > 2000; the wedge route needs C(12, 2) = 66 columns
    for f in (GF3, QQ):
        P = class3_stem_products(f)[-1]
        assert P.name == "L5_5 cp H(2)" and P.dim == 9
        pres = free_presentation(P)
        m_P = pres.dim_F2 - P.derived_subalgebra().dim - pres.RF.dim
        assert m_P == 21
        d_P = P.dim - P.derived_subalgebra().dim
        L = direct_sum(P, abelian(f, 3))
        assert homology(L).dim_M == m_P + 3 + 3 * d_P == 45, f


def test_non_nilpotent_rejected_by_every_invariant():
    S = LieAlgebra(QQ, 2, {(0, 1): {1: Fraction(1)}})
    assert S.degrees() is None
    for fn in (homology, schur_multiplier_dim, exterior_square_dim,
               exterior_center):
        with pytest.raises(NotNilpotentError):
            fn(S)


def test_resource_error_when_neither_route_fits(monkeypatch):
    # H(34): n = 69 and c = 2, so the wedge route would reduce the
    # C(68, 2) + 68 = 2346 pairs of degree <= 3, and the presentation
    # oracle's cover F(68, 3) is larger still; both are > 2000
    def reduced(*args):
        pytest.fail("J was reduced past the guard")

    monkeypatch.setattr(schur, "_echelon_sparse", reduced)
    L = build("H", QQ, m=34)
    assert L.dim == 69
    assert free_dimension(68, 3) > DEFAULT_MAX_DIM
    for fn in (homology, schur_multiplier_dim, exterior_square_dim,
               exterior_center):
        with pytest.raises(ResourceError, match="reduce 2346 columns"):
            fn(L)
    assert "wedge" not in L._cache


def test_wedge_guard_raises_before_listing_the_pairs():
    # A(2000) has class 1 and every degree 1, so all C(2000, 2) pairs would
    # be columns; they are counted, not listed, before the guard raises
    L = abelian(QQ, 2000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError,
                           match=f"reduce {comb(2000, 2)} columns"):
            schur_multiplier_dim(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def _class2_on_five_generators(f, seed):
    """A class-2 algebra on e_0..e_4 with [e_i, e_j] in span(e_5, e_6)
    drawn at random, until L^2 = span(e_5, e_6): degrees (1,1,1,1,1,2,2)
    over any field, Q included."""
    rng = Random(seed)
    while True:
        table = {(i, j): {k: f.coerce(rng.randint(-2, 2)) for k in (5, 6)}
                 for i in range(5) for j in range(i + 1, 5)
                 if rng.random() < 0.6}
        L = LieAlgebra(f, 7, table, name=f"C2({f},{seed})")
        if L.derived_subalgebra().dim == 2:
            return L


def test_algebras_sharing_a_degree_vector_share_one_layout():
    # one pair layout serves every algebra with degrees (1,1,1,1,1,2,2),
    # whatever its table and field; each answer still matches the whole
    # kernel and the presentation oracle
    deg = (1, 1, 1, 1, 1, 2, 2)
    cases = [_class2_on_five_generators(f, s)
             for s in range(4) for f in (QQ, GF2, GF5)]
    cases += [random_gen_heisenberg(7, 2, f, seed=s)
              for s in range(3) for f in (GF2, GF5)]
    assert {L.degrees() for L in cases} == {deg}
    schur._layout(deg)
    hits = schur._layout.cache_info().hits
    for L in cases:
        want = exterior_center_whole_kernel(L)
        zc = exterior_center(L)
        assert repr(zc.basis) == repr(want.basis), L.name
        assert zc.pivots == want.pivots
        wedge, presented = both_routes(L)
        assert wedge == presented, L.name
    assert schur._layout.cache_info().hits == hits + len(cases)


def test_the_shared_layout_refuses_a_write():
    # every algebra with these degrees reads the same cached columns, so a
    # write to them would change the wedge of each later one
    deg = (1, 1, 1, 1, 1, 2, 2)
    before = schur._layout(deg)
    pcol = before[2]
    with pytest.raises(TypeError):
        pcol[0][1] = 99
    with pytest.raises(TypeError):
        pcol[0] = {}
    snapshot = [dict(at) for at in pcol]
    for s in range(3):
        schur._wedge(random_gen_heisenberg(7, 2, GF3, seed=s))
    assert schur._layout(deg) is before
    assert [dict(at) for at in pcol] == snapshot


def test_wedge_guard_raises_on_every_call_with_one_degree_vector():
    # H(34) over Q and GF(3) share one degree vector past the guard;
    # lru_cache keeps no exception, so the second call raises as well
    algebras = [build("H", f, m=34) for f in (QQ, GF3, QQ)]
    assert len({L.degrees() for L in algebras}) == 1
    for L in algebras:
        with pytest.raises(ResourceError, match="reduce 2346 columns"):
            schur_multiplier_dim(L)
        assert "wedge" not in L._cache


# ----------------------------------------------------------------------
# properties: change of basis and direct sums
# ----------------------------------------------------------------------

@st.composite
def _rebased(draw):
    """(L, P^-1, L') with L a catalog algebra, or F(3,3) or F(2,4) in the
    Hall basis, P an invertible matrix drawn as (permutation) . (unit
    lower) . (invertible upper), and L' the same algebra on the basis
    f_a = sum_i P[i][a] e_i.  Rebased F(3,3) gives J 364 rows in one
    ungraded block, whose echelon form over Q has entries much larger
    than the table's."""
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    L = draw(st.sampled_from(standard_instances(f) + [
        free_nilpotent(d, c, f).algebra for d, c in ((3, 3), (2, 4))]))
    return (L, *_rebase(draw, L))


def _rebase(draw, L):
    """(P^-1, L') for an invertible P drawn as in _rebased."""
    f, n = L.field, L.dim
    if f.is_rationals:
        entry, nonzero = st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2])
    else:
        entry, nonzero = st.integers(0, f.p - 1), st.integers(1, f.p - 1)
    perm = draw(st.permutations(range(n)))
    lower = [[f.coerce(draw(entry)) if j < i else f.coerce(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[f.coerce(draw(nonzero)) if j == i
              else f.coerce(draw(entry)) if j > i else f.zero
              for j in range(n)] for i in range(n)]
    lu = [[sum((f.mul(lower[i][t], upper[t][j]) for t in range(n)), f.zero)
           for j in range(n)] for i in range(n)]
    return on_basis(L, [[f.coerce(x) for x in lu[perm[i]]]
                        for i in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_rebased())
def test_invariants_survive_a_change_of_basis(case):
    L, Pinv, L2 = case
    assert L2.validate().ok
    a, b = homology(L), homology(L2)
    assert (a.dim_M, a.dim_exterior_square, a.exterior_center.dim,
            a.capable) == (b.dim_M, b.dim_exterior_square,
                           b.exterior_center.dim, b.capable)
    moved = span(L.field, L.dim,
                 [apply_rows(L.field, Pinv, z)
                  for z in a.exterior_center.basis])
    assert moved == b.exterior_center


# ----------------------------------------------------------------------
# the exterior center, solved over the support of L^2
# ----------------------------------------------------------------------

def _derived_support(L):
    """The coordinates at which some canonical row of L^2 is nonzero."""
    return {t for row in L.derived_subalgebra().basis
            for t, x in enumerate(row) if x != 0}


def _l27b_sliding(f):
    """L27B on the basis f_a = e_0 + ... + e_a.  Its L^2 = span(e_5, e_6)
    has the canonical rows f_4 - f_6 and f_5 - f_6, nonzero at the
    generator column 6, and Z^(L) = span(e_6) = span(f_5 - f_6) is too."""
    n = 7
    return on_basis(build("L27B", f), [[f.coerce(int(i <= a))
                                        for a in range(n)]
                                       for i in range(n)])[1]


@st.composite
def _rebased_off_pivots(draw):
    """A non-capable catalog algebra or an F(d,c)/W on a basis drawn as in
    _rebased, so that the canonical rows of L^2 are nonzero off their
    pivots."""
    L = draw(st.one_of(
        st.sampled_from([QQ, GF2, GF3]).flatmap(lambda f: st.sampled_from(
            [A for A in standard_instances(f)
             if A.name in ("H(2)", "H(3)", "L6_10", "L27B")])),
        _top_degree_quotients()))
    return _rebase(draw, L)[1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(_l27b_sliding(QQ))
@example(_l27b_sliding(GF3))
@given(_rebased_off_pivots())
def test_exterior_center_matches_the_whole_kernel(L):
    # Z^(L) lies in L^2, so it is solved over the support of L^2 only; the
    # oracle solves over all of L.  Byte-equal, scalar types included
    want, zc = exterior_center_whole_kernel(L), exterior_center(L)
    assert repr(zc.basis) == repr(want.basis)
    assert zc.pivots == want.pivots


@pytest.mark.parametrize("f", [QQ, GF2, GF3], ids=str)
def test_exterior_center_with_at_most_one_generator_or_no_l2(f):
    # d <= 1 (A(0), A(1)) solves over all of L, where Z^(L) = L; A(2) and
    # A(1) + A(1) have d = 2 and L^2 = 0, so nothing is solved
    for L, dim in ((abelian(f, 0), 0), (abelian(f, 1), 1),
                   (abelian(f, 2), 0),
                   (direct_sum(abelian(f, 1), abelian(f, 1)), 0)):
        zc = exterior_center(L)
        assert zc.dim == dim, L.name
        assert repr(zc.basis) == repr(exterior_center_whole_kernel(L).basis)


class _ReadRecorder(dict):
    """A residual map that records every basis index it is asked for and
    refuses to be walked whole."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def get(self, t, default=None):
        self.seen.add(t)
        return super().get(t, default)

    def __getitem__(self, t):
        self.seen.add(t)
        return super().__getitem__(t)

    def _walk(self, *args):
        pytest.fail("the residuals of every basis index were walked")

    __iter__ = items = keys = values = _walk


@pytest.mark.parametrize("f", [QQ, GF2, GF3], ids=str)
def test_exterior_center_reads_residuals_only_inside_the_support(f):
    read = {}
    for L in (_l27b_sliding(f), abelian(f, 3),
              plus_abelian(build("H", f, m=2), 2)):
        want = exterior_center_whole_kernel(
            LieAlgebra(f, L.dim, L.table, name=L.name))
        wedge, seen = _wedge(L), set()
        L._cache["wedge"] = wedge._replace(residuals=[
            _ReadRecorder(per_l, seen) for per_l in wedge.residuals])
        zc = exterior_center(L)
        assert repr(zc.basis) == repr(want.basis), L.name
        assert seen <= _derived_support(L), L.name
        read[L.name] = L, seen
    # A(3) has L^2 = 0: nothing is read.  The sliding L27B reads at a
    # generator column too, where Z^(L) is nonzero
    assert not read["A(3)"][1]
    L, seen = read["L27B'"]
    gens = set(minimal_generators(L).pivots)
    assert seen & gens
    assert any(exterior_center(L).basis[0][t] for t in gens)


def test_exterior_center_stops_reading_generators_at_full_rank():
    # a capable algebra's system has full rank, and the echelon stops at
    # the row that completes it: F(7,3)/GF(2) (1421 rows over 133
    # unknowns, full after row 286) never reads the residuals of its
    # last generators.  L27B is not capable, so every generator is read
    read = {}
    for M in (free_nilpotent(7, 3, GF2).algebra, build("L27B", GF2),
              build("L27B", QQ)):
        # fresh copies: build() shares its algebras and their caches
        want = exterior_center_whole_kernel(
            LieAlgebra(M.field, M.dim, M.table, name=M.name))
        L = LieAlgebra(M.field, M.dim, M.table, name=M.name)
        wedge = _wedge(L)
        seen = [set() for _ in wedge.residuals]
        L._cache["wedge"] = wedge._replace(residuals=[
            _ReadRecorder(per_l, s) for per_l, s in zip(wedge.residuals,
                                                         seen)])
        zc = exterior_center(L)
        assert repr(zc.basis) == repr(want.basis), L.name
        assert zc.pivots == want.pivots, L.name
        read[L.name, str(L.field)] = [l for l, s in enumerate(seen) if s]
    free = read["F(7,3)", str(GF2)]
    assert 0 < len(free) < 7 and free == list(range(len(free)))
    assert read["L27B", str(GF2)] == read["L27B", str(QQ)] == list(range(5))


def _permuted(L, perm):
    """L with e_i renumbered perm[i]."""
    neg = L.field.neg
    brackets = {}
    for (i, j), entry in L.table.items():
        a, b = perm[i], perm[j]
        out = {perm[k]: x for k, x in entry.items()}
        brackets[(min(a, b), max(a, b))] = (
            out if a < b else {k: neg(x) for k, x in out.items()})
    return LieAlgebra(L.field, L.dim, brackets, name=f"{L.name}~")


@st.composite
def _shuffled_graded(draw):
    """A standard-graded algebra whose index order does not follow degree:
    a graded catalog algebra or an F(d,c)/W, with A(k) on either side,
    on a permuted basis."""
    L = draw(st.one_of(
        st.sampled_from([QQ, GF2, GF3]).flatmap(lambda f: st.sampled_from(
            [A for A in standard_instances(f) if A.degrees() is not None])),
        _top_degree_quotients()))
    k = draw(st.integers(0, 2))
    A = abelian(L.field, k)
    L = draw(st.sampled_from([direct_sum(L, A), direct_sum(A, L)]))
    return _permuted(L, draw(st.permutations(range(L.dim))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(_top_degree_quotients(), _rebased().map(lambda c: c[2]),
                 _shuffled_graded()))
def test_degree_cut_matches_the_oracles(L):
    # the series read off the degrees against brackets, and the blocks of J
    # and the generator constraints against the presentation oracle
    assert L.lower_central_series() == lower_central_series_loop(L)
    wedge, presented = both_routes(L)
    assert wedge == presented


@st.composite
def _abelian_sums(draw):
    """A catalog algebra with A(k), k <= 2, on either side."""
    f = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    L = draw(st.sampled_from(standard_instances(f)))
    A = abelian(f, draw(st.integers(0, 2)))
    return draw(st.sampled_from([direct_sum(L, A), direct_sum(A, L)]))


@example(LieAlgebra(QQ, 2, {(0, 1): {1: QQ.one}}))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(_abelian_sums(), _rebased().map(lambda c: c[2]),
                 _top_degree_quotients()))
def test_upper_series_and_generators_match_the_oracles(L):
    ucs = L.upper_central_series()
    assert ucs == upper_central_series_by_quotients(L), (L.field, L.name)
    assert L.center() == (ucs[1] if L.dim else ucs[0])
    assert minimal_generators(L) == complement_in(
        L.derived_subalgebra(), L.full_space())


@st.composite
def _catalog_pairs(draw):
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    algebras = st.sampled_from(standard_instances(f))
    return draw(algebras), draw(algebras)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_catalog_pairs())
def test_kunneth_for_direct_sums(pair):
    L, K = pair
    gens = [A.dim - A.derived_subalgebra().dim for A in (L, K)]
    assert (schur_multiplier_dim(direct_sum(L, K))
            == schur_multiplier_dim(L) + schur_multiplier_dim(K)
            + gens[0] * gens[1]), (L.field, L.name, K.name)


# the draws lean to the small catalog algebras; the examples add the
# non-capable ones with dim L^2 = 2 and one out of scope
@example(build("L6_10", QQ))
@example(build("L27B", GF3))
@example(class3_stem_products(GF2)[0])
@example(build("L5_8", GF2))
@example(build("L5_7", QQ))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(_rebased().map(lambda case: case[2]),
                 _top_degree_quotients()))
def test_structural_verdict_matches_ground_truth(L):
    if L.derived_subalgebra().dim <= 2:
        assert capability_structural(L).capable == is_capable(L), L.name
    else:
        with pytest.raises(ScopeError):
            capability_structural(L)


# ----------------------------------------------------------------------
# section independence
# ----------------------------------------------------------------------

def section_choices(L):
    """Presentations from the minimal generators, the same reversed, and
    the same each shifted by an L^2 basis vector."""
    base = [list(r) for r in minimal_generators(L).basis]
    der = L.derived_subalgebra().basis
    shifted = base
    if der:
        shifted = [[L.field.add(a, b) for a, b in zip(row, der[l % len(der)])]
                   for l, row in enumerate(base)]
    return [present(L, images) for images in (base, base[::-1], shifted)]


def test_invariants_do_not_depend_on_the_section():
    for f in (QQ, GF3):
        for name, kw in (("L5_8", {}), ("L6_10", {}), ("L6_22", {"eps": 1})):
            L = build(name, f, **kw)
            choices = section_choices(L)
            dims = {p.dim_F2 - L.derived_subalgebra().dim - p.RF.dim
                    for p in choices}
            assert len(dims) == 1, (f, name)
            centers = {exterior_center_from(p).basis for p in choices}
            assert len(centers) == 1, (f, name)


def test_variants_produce_distinct_relation_spaces():
    # the sections genuinely differ; only the invariants coincide
    L = build("L6_10", QQ)
    sections = {p.section for p in section_choices(L)}
    assert len(sections) > 1


# ----------------------------------------------------------------------
# the homology report
# ----------------------------------------------------------------------

def test_homology_report_is_coherent_and_repeatable():
    L = build("L5_7", GF2)
    rep = homology(L)
    assert rep == homology(L)
    assert rep.dim_exterior_square == rep.dim_M + L.derived_subalgebra().dim
    assert rep.capable == rep.exterior_center.is_zero


def test_homology_of_zero_algebra():
    rep = homology(abelian(QQ, 0))
    assert rep.dim_M == 0 and rep.dim_exterior_square == 0
    assert rep.capable  # the zero algebra is its own central quotient


@pytest.mark.parametrize("f", [QQ, GF2, GF3])
def test_zero_algebra_takes_the_general_path(f):
    """No pairs, no generators: the wedge route gives (0, 0, 0) and the
    bound at the zero ideal matches the oracle's shortcut."""
    L = LieAlgebra(f, 0)
    zero = zero_subspace(f, 0)
    rep = homology(L)
    assert (rep.dim_M, rep.dim_exterior_square, rep.exterior_center) \
        == (0, 0, zero)
    w = _wedge(L)
    assert (w.ncols, w.dim, w.residuals) == (0, 0, [])
    assert epicenter_test_dd(L, zero) == epicenter_test_dd_by_intersection(
        L, zero) == (0, 0, True)
    assert L.quotient(zero).table == quotient_table_by_kept_pairs(
        L, zero) == {}


# ----------------------------------------------------------------------
# central-ideal bound
# ----------------------------------------------------------------------

def test_bound_equality_at_the_exterior_center():
    L = build("L27B", QQ)
    dd = epicenter_test_dd(L, exterior_center(L))
    assert dd.contained
    assert dd.lhs == dd.rhs
    assert dd.consistent


def test_bound_strict_for_capable_heisenberg():
    L = build("H", QQ, m=1)
    dd = epicenter_test_dd(L, L.center())
    assert dd.lhs == 2
    # the quotient is the plane, whose multiplier is 1; the overlap with
    # the derived line is 1
    assert dd.rhs == 0
    assert not dd.contained
    assert dd.consistent


def test_bound_trivial_on_zero_ideal():
    L = build("L5_5", GF2)
    dd = epicenter_test_dd(L, zero_subspace(GF2, 5))
    assert dd.lhs == dd.rhs and dd.contained and dd.consistent


def test_bound_rejects_wrong_ambient():
    L = build("L4_3", QQ)
    with pytest.raises(ShapeError):
        epicenter_test_dd(L, zero_subspace(QQ, 3))


def test_bound_rejects_non_central_ideal():
    L = build("L4_3", QQ)
    with pytest.raises(NotIdealError):
        epicenter_test_dd(L, span(QQ, 4, [[0, 0, 1, 0]]))


def test_bound_holds_on_all_center_lines_of_catalog_sample():
    for f in (QQ, GF2):
        for name in ("L5_7", "L6_13", "L27A"):
            L = build(name, f)
            for row in L.center().basis:
                I = span(f, L.dim, [row])
                dd = epicenter_test_dd(L, I)
                assert dd.consistent, (f, name, row)
                assert dd == epicenter_test_dd_by_intersection(L, I)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the EngineError it raised."""
    try:
        return fn(*args)
    except EngineError as e:
        return type(e), str(e)


def _raised(outcome) -> bool:
    """Whether an `_outcome` is the type and message of an error."""
    return (isinstance(outcome, tuple) and len(outcome) == 2
            and isinstance(outcome[0], type))


@st.composite
def _ideal_cases(draw):
    """(L, subspaces): L a catalog algebra with A(k), k <= 2, on either
    side, or a catalog algebra on a basis where degrees() is None; the
    subspaces a random central line or plane, a nonzero lower central
    series term, a random line of L, often not an ideal, and the zero
    ideal."""
    L = draw(st.one_of(_abelian_sums(), _rebased().map(lambda c: c[2])))
    f, n = L.field, L.dim
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)

    def nonzero(k):
        return st.lists(entry, min_size=k, max_size=k).filter(any)

    z = L.center().basis
    coeffs = draw(st.lists(nonzero(len(z)), min_size=1, max_size=2))
    central = span(f, n, [[sum(c * row[t] for c, row in zip(cs, z))
                           for t in range(n)] for cs in coeffs])
    return L, (central,
               draw(st.sampled_from(L.lower_central_series()[:-1])),
               span(f, n, [draw(nonzero(n))]), zero_subspace(f, n))


@st.composite
def _central_glues(draw):
    """(a, b, pairs): two catalog algebras over Q, GF(2) or GF(3), glued
    along k <= 2 pairs of random central vectors, independent on each
    side."""
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    a, b = (draw(st.sampled_from(standard_instances(f))) for _ in "ab")
    k = draw(st.integers(1, min(2, a.center().dim, b.center().dim)))
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)

    def central(L):
        z = L.center().basis
        rows = st.lists(st.lists(entry, min_size=len(z), max_size=len(z)),
                        min_size=k, max_size=k)
        cs = draw(rows.filter(lambda cs: span(f, len(z), cs).dim == k))
        return [[sum(c * row[t] for c, row in zip(r, z)) for t in range(L.dim)]
                for r in cs]

    return a, b, list(zip(central(a), central(b)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_ideal_cases(), _central_glues())
def test_quotient_and_bound_match_the_parent_routes(case, glued):
    """The quotient's table from L's table against the kept pairs
    bracketed, its errors against the reduction oracle's, the bound's right
    side read off the quotient against dim M(L/I) - dim(L^2 cap I) by
    intersection, errors included; and the glue ideal `central_product`
    returns, and the images `classify._push` reads off it, against the glue
    vectors spanned and each e_k reduced mod that ideal."""
    L, subspaces = case
    for I in subspaces:
        want = _outcome(quotient_projection_by_reduction, L, I)
        table = _outcome(lambda: L.quotient(I).table)
        if _raised(want):
            assert table == want
        else:
            assert table == quotient_table_by_kept_pairs(L, I)
        assert _outcome(epicenter_test_dd, L, I) == _outcome(
            epicenter_test_dd_by_intersection, L, I)
    a, b, pairs = glued
    f, d = a.field, direct_sum(a, b)
    glue = span(f, d.dim, [x + [-c for c in y] for x, y in pairs])
    prod, returned = central_product(a, b, pairs)
    assert returned == glue
    proj = quotient_projection_by_reduction(d, glue)
    for offset, factor in ((0, a), (a.dim, b)):
        pad = [f.zero] * offset, [f.zero] * (d.dim - offset - factor.dim)
        subs = [factor.full_space(), factor.derived_subalgebra()]
        subs += [coordinate_subspace(f, factor.dim, [k])
                 for k in range(factor.dim)]
        for sub in subs:
            images = [apply_rows(f, proj, pad[0] + list(row) + pad[1])
                      for row in sub.basis]
            assert _push(returned, sub, offset, prod) == span(
                f, prod.dim, images)
    assert prod.table == quotient_table_by_kept_pairs(d, glue)


@st.composite
def _respanned_central_ideals(draw):
    """(L, pairs): L a catalog algebra with A(k), k <= 2, on either side,
    and random central lines and planes, each with a second spanning set:
    its first row scaled and plus a combination of the others."""
    L = draw(_abelian_sums())
    f, n = L.field, L.dim
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)
    unit = (st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2)])
            if f.is_rationals else st.integers(1, f.p - 1))
    z = L.center().basis
    pairs = []
    for k in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)):
        coeffs = draw(st.lists(st.lists(entry, min_size=len(z),
                                        max_size=len(z)).filter(any),
                               min_size=k, max_size=k))
        rows = [[sum(c * row[t] for c, row in zip(cs, z)) for t in range(n)]
                for cs in coeffs]
        s, others = draw(unit), draw(st.lists(entry, min_size=k - 1,
                                              max_size=k - 1))
        first = [s * x + sum(c * r[t] for c, r in zip(others, rows[1:]))
                 for t, x in enumerate(rows[0])]
        pairs.append((span(f, n, rows), span(f, n, [first, *rows[1:]])))
    return L, pairs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_respanned_central_ideals())
def test_bound_on_a_respanned_ideal_matches_a_fresh_algebra(case):
    """The second spanning set of an ideal is the same canonical Subspace,
    and both calls, the second a cache hit, equal the intersection oracle
    on a fresh copy of L."""
    L, pairs = case
    for I, again in pairs:
        assert again == I
        for J in (I, again):
            fresh = LieAlgebra(L.field, L.dim, L.table, L.name)
            assert epicenter_test_dd(L, J) == \
                epicenter_test_dd_by_intersection(fresh, J), (L.name, J)
        dd = epicenter_test_dd(L, I)
        assert L._cache[("bound", I)] == (dd.lhs - dd.rhs, dd.contained)


def test_bound_builds_no_quotient_and_ranks_once_per_canonical_ideal(
        monkeypatch):
    """Every central line of H(1) + A(2) over GF(3), each given by both
    its nonzero multiples: L.quotient runs in none of the 26 calls, and the
    rank of L ^ I mod J is taken once per line, 13 times."""
    quotients, ranks = [], []
    quotient = LieAlgebra.quotient
    rank = schur._central_wedge_rank

    def counted_quotient(self, ideal):
        quotients.append(ideal)
        return quotient(self, ideal)

    def counted_rank(L, I):
        ranks.append(I)
        return rank(L, I)

    monkeypatch.setattr(LieAlgebra, "quotient", counted_quotient)
    monkeypatch.setattr(schur, "_central_wedge_rank", counted_rank)
    L = direct_sum(build("H", GF3, m=1), abelian(GF3, 2))
    z = L.center().basis
    lines = [span(GF3, L.dim, [[sum(c * row[t] for c, row in zip(cs, z))
                                for t in range(L.dim)]])
             for cs in product(range(3), repeat=len(z)) if any(cs)]
    results = {}
    for I in lines:
        results.setdefault(I, set()).add(epicenter_test_dd(L, I))
    assert len(lines) == 26 and len(results) == 13
    assert quotients == []
    assert len(ranks) == 13 and set(ranks) == set(results)
    assert all(len(r) == 1 for r in results.values())


def test_bound_checks_its_input_after_a_cache_hit():
    """The ambient and centrality checks run on every call: a cached
    ideal's rows over another field, a non-central line and a subspace of
    the wrong dimension still raise."""
    L = build("L4_3", GF3)
    I = L.center()
    assert epicenter_test_dd(L, I) == epicenter_test_dd(L, I)
    with pytest.raises(NotIdealError):
        epicenter_test_dd(L, span(GF3, 4, [[0, 0, 1, 0]]))
    with pytest.raises(ShapeError):
        epicenter_test_dd(L, zero_subspace(GF3, 3))
    for f in (GF2, QQ):
        with pytest.raises(ShapeError):
            epicenter_test_dd(L, span(f, 4, I.basis))
