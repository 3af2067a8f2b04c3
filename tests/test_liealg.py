"""Structure-constant Lie algebras: brackets, series, quotients, products."""

import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liecap import GF2, GF3, GF5, QQ, LieAlgebra, span
from liecap.errors import (NotIdealError, NotNilpotentError, ResourceError,
                           ShapeError)
from liecap.liealg import (
    DEFAULT_MAX_DIM,
    abelian,
    central_product,
    direct_sum,
    minimal_generators,
)
from liecap.linalg import zero_subspace
from liecap.schur import homology
from liecap.catalog import build, standard_instances

from oracles import (
    Hom,
    bracket_subspaces_all_pairs,
    jacobi_violations_all_triples,
    lower_central_series_loop,
    on_basis,
    quotient_projection_by_reduction,
    quotient_with_projection,
    stem_decompose,
    subalgebra_on,
)

FIELDS = (QQ, GF2, GF3, GF5)


def _solvable_2dim(field):
    """[e1, e2] = e2: the smallest non-nilpotent Lie algebra."""
    return LieAlgebra(field, 2, {(0, 1): {1: field.one}})


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_heisenberg_table_validates():
    assert build("H", QQ, m=1).validate().ok


def test_four_dim_two_step_chain_validates():
    # [x1,x2]=x3, [x1,x3]=x4
    assert build("L4_3", QQ).validate().ok


def test_jacobi_failure_located():
    # [e1,e2]=e3, [e1,e3]=e1: the cyclic sum over (e1,e2,e3) leaves
    # [[e1,e2],e3] + [[e3,e1],e2] = -[e1,e2] = -e3, which is nonzero.
    L = LieAlgebra(QQ, 3, {(0, 1): {2: Fraction(1)},
                           (0, 2): {0: Fraction(1)}})
    rep = L.validate()
    assert not rep.ok
    assert (0, 1, 2) in rep.violations


def test_all_catalog_tables_validate_over_all_fields():
    from liecap.catalog import standard_instances
    for f in FIELDS:
        for L in standard_instances(f):
            assert L.validate().ok, L.name


@st.composite
def _sparse_tables(draw):
    """A random sparse table, mostly not a Lie algebra."""
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=6)) if pairs else []
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), entry,
                                        min_size=1, max_size=2))
             for pair in chosen}
    return LieAlgebra(f, n, table)


# [x1,x2]=x3, [x2,x3]=x4, [x1,x4]=x5 breaks Jacobi at (x1,x2,x3)
@example(LieAlgebra(QQ, 5, {(0, 1): {2: 1}, (1, 2): {3: 1}, (0, 3): {4: 1}}))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_tables())
def test_validate_matches_all_triples(L):
    assert L.validate().violations == jacobi_violations_all_triples(L)


def _single_term_tables(f) -> list:
    """Tables on which Jacobi fails at one triple {a, b, c} only, through
    the one term [e_a, [e_b, e_c]], for each place of a in the triple:
    [e_b, e_c] = e_t + e_s, and [e_a, e_s] is the only nonzero bracket of
    a with a target, so the entry's second target alone reaches a and the
    other two terms are 0.  The targets lie above the triple or below it,
    so that [e_a, e_s] is read in both orders."""
    out = []
    for triple, (t, s, u) in (((0, 1, 2), (3, 4, 5)),
                              ((3, 4, 5), (2, 1, 0))):
        for a in triple:
            b, c = (x for x in triple if x != a)
            out.append(LieAlgebra(f, 6, {(b, c): {t: 1, s: 1},
                                         (min(a, s), max(a, s)): {u: 1}}))
    return out


def _scalars(f):
    if f.is_rationals:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8))
    return st.integers(0, f.p - 1)


@st.composite
def _bases(draw, f, n):
    """P for the basis f_a = sum_i P[i][a] e_i: nonzero scalars on the
    diagonal, so that over Q the structure constants become fractions, and
    zeros above it or (the dense rebased form) random scalars."""
    scalar = _scalars(f)
    nonzero = scalar.filter(lambda x: x != 0)
    dense = draw(st.booleans())
    return [[draw(nonzero) if i == j else draw(scalar) if dense and j > i
             else 0 for j in range(n)] for i in range(n)]


@st.composite
def _tampered_tables(draw):
    """A catalog algebra or a single-term table on a basis from _bases,
    with up to three entries of its table then overwritten by random
    scalars."""
    f = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    L = draw(st.sampled_from(standard_instances(f) + _single_term_tables(f)))
    n = L.dim
    table = on_basis(L, draw(_bases(f, n)))[1].table
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pair, k, c in draw(st.lists(st.tuples(
            st.sampled_from(pairs), st.integers(0, n - 1), _scalars(f)),
            max_size=3)):
        table.setdefault(pair, {})[k] = f.coerce(c)
    return LieAlgebra(f, n, table, name=L.name)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tampered_tables())
def test_validate_matches_all_triples_on_tampered_tables(L):
    # validate sums Jacobi on ints: the Q table scaled by the lcm of its
    # denominators, the GF(p) residues reduced only when a sum is tested
    assert L.validate().violations == jacobi_violations_all_triples(L)


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_validate_finds_a_violation_that_one_term_carries(f):
    # validate lists a triple only where a bracket meets a bracket; here
    # one term of one triple does, through an entry's second target
    half = f.coerce(Fraction(1, 2)) if f.is_rationals else f.one
    for L in _single_term_tables(f):
        found = L.validate().violations
        assert len(found) == 1 and found == jacobi_violations_all_triples(L)
        n = L.dim
        for P in ([[half if i == j else 0 for j in range(n)]
                   for i in range(n)],
                  [[1 if i == j else (i + 2 * j) % 3 if j > i else 0
                    for j in range(n)] for i in range(n)]):
            M = on_basis(L, P)[1]
            assert M.validate().violations == jacobi_violations_all_triples(M)


def test_table_entries_out_of_range_rejected():
    with pytest.raises(ShapeError):
        LieAlgebra(QQ, 2, {(0, 5): {1: Fraction(1)}})
    with pytest.raises(ShapeError):
        LieAlgebra(QQ, 2, {(1, 0): {0: Fraction(1)}})
    with pytest.raises(ShapeError):
        LieAlgebra(QQ, 2, {(0, 1): {3: Fraction(1)}})


@pytest.mark.parametrize("dim, brackets", [
    (2.5, {}), (True, {}), (3, {(0.5, 2): {1: 1}}), (3, {(False, 2): {1: 1}}),
    (3, {(0, 2): {1.0: 1}}), (3, {(0, 2): {True: 1}}),
])
def test_non_int_dimension_or_index_rejected(dim, brackets):
    # (0.5, 2) used to pass validate() and make homology raise TypeError
    with pytest.raises(ShapeError, match="is not an int|bad bracket pair"
                                         "|bracket target"):
        LieAlgebra(QQ, dim, brackets)


@pytest.mark.parametrize("out", [5, None, [(2,)], [(2, 1, 0)], [2]])
def test_bracket_entry_neither_mapping_nor_pairs_rejected(out):
    # 5 used to raise a raw TypeError while the entry was read, [(2,)] a
    # raw ValueError
    with pytest.raises(ShapeError, match=r"bracket \(0, 1\) is .*, not a "
                                         r"mapping or \(index, value\) pairs"):
        LieAlgebra(QQ, 3, {(0, 1): out})


@pytest.mark.parametrize("brackets, what", [
    ({5: {2: 1}}, r"bracket key 5 is not a pair \(i, j\)"),
    ({(0, 1, 2): {2: 1}}, r"bracket key \(0, 1, 2\) is not a pair"),
    ([((0, 1), {2: 1})], r"brackets \[.*\] is not a mapping"),
])
def test_bracket_key_or_container_of_the_wrong_shape_rejected(brackets,
                                                              what):
    # these used to raise a raw TypeError, ValueError and AttributeError
    with pytest.raises(ShapeError, match=what):
        LieAlgebra(GF2, 3, brackets)


def test_numpy_integer_dimension_and_indices_accepted():
    # numpy integers, e.g. indices taken from np.nonzero, are integers
    three, zero, one, two = (np.int64(k) for k in (3, 0, 1, 2))
    L = LieAlgebra(QQ, three, {(zero, one): {two: 1}})
    M = LieAlgebra(QQ, 3, {(0, 1): {2: 1}})
    assert type(L.dim) is int and L.dim == 3
    assert L.table == M.table
    assert all(type(k) is int for pair, out in L.table.items()
               for k in (*pair, *out))
    assert homology(L) == homology(M)


@pytest.mark.parametrize("f", [QQ, GF3], ids=str)
def test_dict_entry_and_its_pairs_give_one_table(f):
    # a dict entry is stored value by value, since its keys are distinct;
    # (index, value) pairs are summed.  Values that are 0 in f are dropped
    entries = {(0, 1): {2: Fraction(1, 2), 3: -4, np.int64(4): "5/7", 5: 3},
               (1, 2): {5: 6, 6: 0}, (2, 3): {}}
    by_dict = LieAlgebra(f, 7, entries)
    by_pairs = LieAlgebra(f, 7, {pair: list(out.items())
                                 for pair, out in entries.items()})
    assert by_dict.table == by_pairs.table == {
        pair: {int(k): f.coerce(c) for k, c in out.items() if f.coerce(c)}
        for pair, out in entries.items()
        if any(map(f.coerce, out.values()))}
    assert all(type(k) is int for out in by_dict.table.values() for k in out)
    if f is GF3:
        assert by_dict.table == {(0, 1): {2: 2, 3: 2, 4: 2}}
    for bad in (True, 1.0, -1):
        for out in ({bad: 1}, [(bad, 1)]):
            with pytest.raises(ShapeError, match="bracket target"):
                LieAlgebra(f, 7, {(0, 1): out})


def test_size_guard_rejects_dimension_past_the_guard():
    assert LieAlgebra(QQ, DEFAULT_MAX_DIM).dim == DEFAULT_MAX_DIM
    with pytest.raises(ResourceError, match="dimension 2001 is past"):
        LieAlgebra(QQ, DEFAULT_MAX_DIM + 1)


# ----------------------------------------------------------------------
# bracket
# ----------------------------------------------------------------------

def test_bracket_of_paired_generators_is_central_element():
    H = build("H", QQ, m=1)
    assert H.bracket(H.basis_vector(0), H.basis_vector(1)) == (0, 0, 1)


def test_basis_vector_rejects_an_index_out_of_range():
    # a central_product glue index goes through basis_vector too
    H = build("H", QQ, m=1)
    assert H.basis_vector(2) == (0, 0, 1)
    for bad in (7, -1):
        message = f"^basis index {bad} out of range for dim 3$"
        with pytest.raises(ShapeError, match=message):
            H.basis_vector(bad)
        for pair in ((bad, 2), (2, bad)):
            with pytest.raises(ShapeError, match=message):
                central_product(H, H, [pair])


def test_basis_vector_rejects_an_index_that_is_not_an_int():
    # a bool or a float used to stand for 1, a string or None to raise a
    # raw TypeError; a numpy integer is an int
    H = build("H", QQ, m=1)
    assert H.basis_vector(np.int64(2)) == (0, 0, 1)
    for bad in (True, 1.0, "1", None):
        message = re.escape(f"basis index {bad!r} is not an int")
        with pytest.raises(ShapeError, match=f"^{message}$"):
            H.basis_vector(bad)


def test_bracket_is_alternating():
    rng = random.Random(5)
    for f in (QQ, GF3):
        L = build("L5_5", f)
        for _ in range(10):
            x = tuple(f.random_scalar(rng) for _ in range(5))
            assert L.bracket(x, x) == tuple([f.zero] * 5)


def test_bracket_specific_entry_five_dim_chain():
    L = build("L5_5", QQ)
    assert L.bracket(L.basis_vector(1), L.basis_vector(3)) == (0, 0, 0, 0, 1)


def test_bracket_bilinear_random():
    rng = random.Random(13)
    for f in (QQ, GF5):
        L = build("L6_13", f)
        for _ in range(10):
            x = tuple(f.random_scalar(rng) for _ in range(6))
            y = tuple(f.random_scalar(rng) for _ in range(6))
            z = tuple(f.random_scalar(rng) for _ in range(6))
            a = f.random_scalar(rng)
            left = L.bracket([f.add(x[i], f.mul(a, y[i])) for i in range(6)], z)
            xz, yz = L.bracket(x, z), L.bracket(y, z)
            right = tuple(f.add(xz[i], f.mul(a, yz[i])) for i in range(6))
            assert left == right
            xy = L.bracket(x, y)
            assert L.bracket(y, x) == tuple(f.neg(c) for c in xy)


def test_bracket_subspaces_of_whole_algebra():
    H = build("H", QQ, m=1)
    der = H.bracket_subspaces(H.full_space(), H.full_space())
    assert der.dim == 1 and der.basis == ((0, 0, 1),)


def test_bracket_subspaces_with_zero():
    L = build("L5_8", GF2)
    assert L.bracket_subspaces(L.full_space(), zero_subspace(GF2, 5)).dim == 0


@st.composite
def _subspace_pairs(draw):
    """(L, a, b): a catalog algebra and two subspaces, each the whole
    algebra, zero or the span of random rows."""
    f = draw(st.sampled_from([QQ, GF2, GF3]))
    L = draw(st.sampled_from(standard_instances(f)))
    n = L.dim
    entry = st.integers(-2, 2) if f.is_rationals else st.integers(0, f.p - 1)

    def subspace():
        kind = draw(st.sampled_from(["full", "zero", "rows"]))
        if kind == "full":
            return L.full_space()
        if kind == "zero":
            return zero_subspace(f, n)
        return span(f, n, draw(st.lists(st.lists(entry, min_size=n,
                                                 max_size=n), max_size=n)))

    return L, subspace(), subspace()


_L6 = build("L6_22", GF3, eps=1)


@example((_L6, _L6.full_space(), _L6.full_space()))
@example((_L6, _L6.full_space(), zero_subspace(GF3, 6)))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_subspace_pairs())
def test_bracket_subspaces_match_all_pairs(case):
    L, a, b = case
    assert L.bracket_subspaces(a, b) == bracket_subspaces_all_pairs(L, a, b)


def test_derived_subalgebra_rank_two_example():
    # [x1,x2]=x4, [x1,x3]=x5 -> derived = span{x4, x5}
    L = build("L5_8", QQ)
    der = L.derived_subalgebra()
    assert der.dim == 2
    assert der.basis == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


# ----------------------------------------------------------------------
# series, class, center
# ----------------------------------------------------------------------

def test_lower_series_four_dim_chain():
    L = build("L4_3", QQ)
    assert [s.dim for s in L.lower_central_series()] == [4, 2, 1, 0]
    assert L.nilpotency_class() == 3


def test_lower_series_abelian():
    for n in (0, 1, 4):
        A = abelian(QQ, n)
        assert [s.dim for s in A.lower_central_series()] == [n, 0]
        assert A.nilpotency_class() == (1 if n else 0)


def test_lower_series_six_dim_class_three():
    L = build("L6_10", GF3)
    assert [s.dim for s in L.lower_central_series()] == [6, 2, 1, 0]
    assert L.nilpotency_class() == 3


def test_degrees_none_when_the_table_is_not_standard_graded():
    for f in FIELDS:
        # x5 = [x1,x3] = [x2,x4] gets degrees 3 and 2
        assert build("L5_5", f).degrees() is None
        # e2 = [e1,e2] needs its own degree first
        assert _solvable_2dim(f).degrees() is None
        # e3 and e4 get degree 2, but L^2 = <e3 + e4> is not V_{>=2}
        L = LieAlgebra(f, 4, {(0, 1): {2: f.one, 3: f.one}})
        assert L.derived_subalgebra().dim == 1
        assert L.degrees() is None
        assert [s.dim for s in L.lower_central_series()] == [4, 1, 0]


def test_degrees_of_abelian_sums_on_either_side():
    for f in FIELDS:
        L = build("L4_3", f)  # [x1,x2]=x3, [x1,x3]=x4
        assert L.degrees() == (1, 1, 2, 3)
        assert direct_sum(abelian(f, 2), L).degrees() == (1, 1, 1, 1, 2, 3)
        assert direct_sum(L, abelian(f, 2)).degrees() == (1, 1, 2, 3, 1, 1)
        for M in (direct_sum(L, abelian(f, 2)), abelian(f, 3), abelian(f, 0)):
            assert M.lower_central_series() == \
                lower_central_series_loop(M), (f, M.name)


def test_center_heisenberg():
    H = build("H", QQ, m=1)
    assert H.center().basis == ((0, 0, 1),)


def test_center_and_second_center_five_dim_chain():
    L = build("L5_5", QQ)
    assert L.center().basis == ((0, 0, 0, 0, 1),)
    ucs = L.upper_central_series()
    assert [s.dim for s in ucs[:3]] == [0, 1, 3]
    assert ucs[2].basis == ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                            (0, 0, 0, 0, 1))


def test_center_abelian_is_everything():
    A = abelian(GF5, 4)
    assert A.center().dim == 4


@pytest.mark.parametrize("f", [QQ, GF2], ids=str)
def test_subspaces_of_a_large_abelian_algebra_stay_sparse(f):
    # Z(A(2000)), both central series and the minimal generators are
    # coordinate spans: one (column, value) pair per row, under 2 MB
    # traced, where 2000 dense rows of 2000 scalars took about 93 MB
    L = abelian(f, 2000)
    tracemalloc.start()
    try:
        got = (L.center(), L.lower_central_series(),
               L.upper_central_series(), minimal_generators(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full, zero = L.full_space(), zero_subspace(f, 2000)
    assert got == (full, (full, zero), (zero, full), full)
    assert peak < 8 * 2**20


def test_upper_series_reaches_whole_algebra_iff_nilpotent():
    L = build("L6_22", QQ, eps=1)
    assert L.upper_central_series()[-1].dim == 6
    S = _solvable_2dim(QQ)
    assert not S.is_nilpotent
    assert S.upper_central_series() == (zero_subspace(QQ, 2),) * 2


def test_nilpotency_class_raises_on_solvable_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        _solvable_2dim(GF2).nilpotency_class()


# ----------------------------------------------------------------------
# structural profile
# ----------------------------------------------------------------------

def test_profile_generalized_heisenberg_rank_two():
    p = build("L5_8", QQ).structural_profile()
    assert p.is_stem and p.gen_heisenberg_rank == 2


def test_profile_maximal_class_chain():
    p = build("L4_3", QQ).structural_profile()
    assert p.is_stem and p.is_maximal_class
    assert p.gen_heisenberg_rank is None


def test_profile_central_abelian_summand_breaks_stem():
    L = direct_sum(build("H", QQ, m=1), abelian(QQ, 1))
    assert not L.structural_profile().is_stem


# ----------------------------------------------------------------------
# quotients
# ----------------------------------------------------------------------

def test_quotient_of_five_dim_by_top_line_gives_four_dim_chain():
    L = build("L5_7", QQ)
    Q, proj = quotient_with_projection(L, span(QQ, 5, [[0, 0, 0, 0, 1]]))
    assert Q.same_table(build("L4_3", QQ))
    assert proj.is_bracket_compatible()
    assert proj.kernel().dim == 1


def test_quotient_by_whole_algebra_is_zero():
    L = build("H", GF2, m=1)
    Q = L.quotient(L.full_space())
    assert Q.dim == 0 and Q.table == {}


def test_quotient_of_six_dim_by_top_line_gives_five_dim_chain():
    L = build("L6_13", QQ)
    Q, proj = quotient_with_projection(L, span(QQ, 6, [[0, 0, 0, 0, 0, 1]]))
    assert Q.same_table(build("L5_5", QQ))
    assert proj.is_bracket_compatible()


def test_quotient_by_non_ideal_rejected():
    L = build("L4_3", QQ)
    with pytest.raises(NotIdealError):
        L.quotient(span(QQ, 4, [[1, 0, 0, 0]]))


def test_quotient_by_wrong_ambient_rejected():
    L = build("L4_3", QQ)
    with pytest.raises(ShapeError):
        L.quotient(span(QQ, 3, [[0, 0, 1]]))


def test_quotient_projection_kills_exactly_the_ideal():
    L = build("L6_10", GF3)
    ideal = span(GF3, 6, [[0, 0, 0, 0, 0, 1]])
    Q, proj = quotient_with_projection(L, ideal)
    assert proj.kernel().basis == ideal.basis
    assert proj.image().dim == Q.dim


def test_quotient_by_non_pivot_line_uses_complement_coordinates():
    # Central line z + w inside H(1) (+) A(1), basis (a, b, z, w): kept
    # coordinates are the standard vectors at the line's non-pivot columns
    # (a, b, w), and [a, b] = z = -w modulo the line.
    L = direct_sum(build("H", QQ, m=1), abelian(QQ, 1))
    Q, proj = quotient_with_projection(L, span(QQ, 4, [[0, 0, 1, 1]]))
    assert Q.dim == 3
    assert proj.is_bracket_compatible()
    assert Q.table == {(0, 1): {2: Fraction(-1)}}


# ----------------------------------------------------------------------
# direct sums
# ----------------------------------------------------------------------

def test_direct_sum_dims_and_derived():
    L = direct_sum(build("H", QQ, m=1), abelian(QQ, 2))
    assert L.dim == 5
    assert L.derived_subalgebra().dim == 1


def test_direct_sum_with_zero_identity():
    H = build("H", GF2, m=1)
    assert direct_sum(H, abelian(GF2, 0)).same_table(H)


def test_direct_sum_chain_plus_line():
    L = direct_sum(build("L4_3", QQ), abelian(QQ, 1))
    assert L.dim == 5
    assert L.nilpotency_class() == 3
    assert L.center().dim == 2


def test_direct_sum_blocks_do_not_interact():
    A, B = build("L5_5", GF5), build("H", GF5, m=1)
    L = direct_sum(A, B)
    for i in range(A.dim):
        for j in range(B.dim):
            x = L.basis_vector(i)
            y = L.basis_vector(A.dim + j)
            assert all(c == 0 for c in L.bracket(x, y))


def test_direct_sum_rejects_mixed_fields():
    with pytest.raises(ShapeError):
        direct_sum(abelian(QQ, 1), abelian(GF2, 1))


# ----------------------------------------------------------------------
# central products
# ----------------------------------------------------------------------

def test_central_product_of_two_heisenbergs_is_rank_one_of_higher_genus():
    H1 = build("H", QQ, m=1)
    prod, glue = central_product(H1, H1, [(2, 2)])
    assert prod.same_table(build("H", QQ, m=2))
    assert glue == span(QQ, 6, [[0, 0, 1, 0, 0, -1]])
    d = direct_sum(H1, H1)
    proj = Hom(d, prod, quotient_projection_by_reduction(d, glue))
    assert proj.is_bracket_compatible()


def test_central_product_chain_with_heisenberg():
    prod, _ = central_product(build("L4_3", QQ), build("H", QQ, m=1),
                              [(3, 2)])
    assert prod.same_table(build("L6_10", QQ))


def test_central_product_reads_a_numpy_index_and_refuses_a_bool():
    H1 = build("H", QQ, m=1)
    want, _ = central_product(H1, H1, [(2, 2)])
    for pair in ((np.int64(2), 2), (2, np.int64(2))):
        prod, _ = central_product(H1, H1, [pair])
        assert prod.same_table(want)
    for pair in ((True, 2), (2, False)):
        with pytest.raises(ShapeError, match="is a bool, not an index"):
            central_product(H1, H1, [pair])
    # a string is neither: '2' used to be read as the vector (2,); nor is
    # a mapping or a set, read as its keys: {0: 0, 1: 0, 2: 1} as (0, 1, 2)
    for pair in ((2.0, 2), (None, 2), ("2", 2), (2, "222"), (b"2", 2),
                 (bytearray(b"2"), 2), (2, memoryview(b"2")),
                 ({0: 0, 1: 0, 2: 1}, 2), (2, {0: 0, 1: 0, 2: 1}),
                 ({0, 1, 2}, 2), (2, frozenset({0, 1, 2}))):
        with pytest.raises(ShapeError, match="neither index nor vector"):
            central_product(H1, H1, [pair])


@pytest.mark.parametrize("pairs", [[2], [(2,)], [(2, 2, 2)]])
def test_central_product_refuses_a_gluing_pair_of_the_wrong_shape(pairs):
    # these used to raise a raw TypeError or ValueError
    H1 = build("H", QQ, m=1)
    with pytest.raises(ShapeError, match="gluing pair .* is not a pair"):
        central_product(H1, H1, pairs)


def test_central_product_no_identification_is_direct_sum():
    H = build("H", GF3, m=1)
    A = abelian(GF3, 2)
    prod, _ = central_product(H, A, [])
    assert prod.same_table(direct_sum(H, A))


def test_central_product_accepts_explicit_vectors():
    H1 = build("H", QQ, m=1)
    prod, _ = central_product(H1, H1, [((0, 0, 1), (0, 0, 1))])
    assert prod.same_table(build("H", QQ, m=2))


def test_central_product_rejects_non_central_glue():
    with pytest.raises(ShapeError):
        central_product(build("H", QQ, m=1), build("H", QQ, m=1), [(0, 2)])


def test_central_product_rejects_dependent_glue():
    H2 = build("H", QQ, m=2)
    with pytest.raises(ShapeError):
        central_product(H2, H2, [(4, 4), ((0, 0, 0, 0, 2), (0, 0, 0, 0, 2))])


# ----------------------------------------------------------------------
# stem decomposition
# ----------------------------------------------------------------------

def test_stem_decompose_splits_off_abelian_summand():
    L = direct_sum(build("L4_3", QQ), abelian(QQ, 2))
    sd = stem_decompose(L)
    assert sd.T.same_table(build("L4_3", QQ))
    assert sd.A.dim == 2
    assert sd.iso.is_bracket_compatible()
    assert sd.iso.kernel().dim == 0


def test_stem_decompose_fixes_stem_input():
    L = build("L5_5", GF2)
    sd = stem_decompose(L)
    assert sd.T.dim == 5 and sd.A.dim == 0


def test_stem_decompose_heisenberg_with_extra_lines():
    sd = stem_decompose(direct_sum(build("H", QQ, m=1), abelian(QQ, 3)))
    assert sd.T.dim == 3 and sd.A.dim == 3
    assert sd.T.derived_subalgebra().contains_subspace(sd.T.center())


def test_stem_decompose_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        stem_decompose(_solvable_2dim(QQ))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_minimal_generator_count_heisenberg():
    for m in (1, 2, 3):
        assert minimal_generators(build("H", QQ, m=m)).dim == 2 * m


def test_minimal_generator_count_chain():
    assert minimal_generators(build("L4_3", GF2)).dim == 2


def test_minimal_generator_count_abelian():
    for n in (0, 1, 5):
        assert minimal_generators(abelian(QQ, n)).dim == n


# ----------------------------------------------------------------------
# subalgebras and equality
# ----------------------------------------------------------------------

def test_subalgebra_on_derived_subalgebra():
    L = build("L4_3", QQ)
    sub = subalgebra_on(L, L.derived_subalgebra())
    assert sub.dim == 2
    assert sub.table == {}  # second derived vanishes for this chain


def test_subalgebra_on_non_closed_space_rejected():
    L = build("L4_3", QQ)
    with pytest.raises(ShapeError):
        subalgebra_on(L, span(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]))


def test_same_table_distinguishes_fields_and_scalars():
    assert not build("H", QQ, m=1).same_table(build("H", GF2, m=1))
    assert not build("L6_22", QQ, eps=1).same_table(
        build("L6_22", QQ, eps=2))
