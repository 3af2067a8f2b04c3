"""Exact linear algebra: echelon forms, subspaces, and the operations the
homology computations rely on."""

import itertools
import random
import re
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liecap import (
    GF2, GF3, GF5, QQ, FieldSpec, kernel, span,
)
from liecap import linalg
from liecap.errors import FieldError, ShapeError
from liecap.linalg import (
    coordinate_subspace,
    full_subspace,
    subspace_intersect,
    zero_subspace,
)

import oracles
from oracles import (
    apply_rows,
    complement_in,
    coordinates,
    extend_to_complement,
    extend_to_complement_greedy,
    gauss_jordan,
    null_space_gauss_jordan,
    reduce_dense,
    reduce_rows,
    rref_rows,
    solve_right_inverse,
    subspace_sum,
)


def _enumerate(sub):
    """All vectors of a subspace over a finite field (brute-force oracle)."""
    f = sub.field
    vecs = set()
    for coeffs in itertools.product(list(f.elements()), repeat=sub.dim):
        v = [f.zero] * sub.ambient_dim
        for c, row in zip(coeffs, sub.basis):
            for k, x in enumerate(row):
                v[k] = f.add(v[k], f.mul(c, x))
        vecs.add(tuple(v))
    return vecs


def _random_subspace(f, n, rng, max_rows=3):
    rows = [[f.random_scalar(rng) for _ in range(n)]
            for _ in range(rng.randrange(max_rows + 1))]
    return span(f, n, rows)


# ----------------------------------------------------------------------
# echelon form
# ----------------------------------------------------------------------

def test_rref_collapses_dependent_rows_over_q():
    s = span(QQ, 2, [[2, 4], [1, 2]])
    assert s.dim == 1
    assert s.basis == ((1, 2),)


def test_rref_identity_fixed_point():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    s = span(QQ, 3, rows)
    assert s.dim == 3
    assert s.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rref_gf2_full_rank():
    # [[1,1],[1,0]] over GF(2): row-reduce by hand — r2 := r1+r2 gives
    # [[1,1],[0,1]], then r1 := r1+r2 gives the identity.
    s = span(GF2, 2, [[1, 1], [1, 0]])
    assert s.dim == 2
    assert s.basis == ((1, 0), (0, 1))


def test_rref_rows_returns_one_row_per_pivot():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 0], [0, 0, 1], [1, 2, 1]]
    for f in (QQ, GF3):
        reduced, pivots = rref_rows(
            f, [[f.coerce(x) for x in row] for row in rows])
        assert pivots == [0, 2]
        assert reduced == [[1, 2, 0], [0, 0, 1]]


@st.composite
def _sparse_cases(draw):
    """Rows over Q, GF(2), GF(3) and GF(5) with a zero row, repeated rows
    and combinations of earlier rows, which cancel to zero when they are
    inserted after the rows they combine.  Over Q the entries have common
    factors and denominators, so rows are made primitive and combined
    with multipliers other than 1.  In tall cases n unit upper triangular
    rows are shuffled in, so every column is a pivot before the rows that
    follow are read."""
    f = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    if f.is_rationals:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, 12, -15, Fraction(1, 2),
                                 Fraction(-2, 3), Fraction(7, 9),
                                 Fraction(-5, 6)])
    else:
        entry = st.integers(0, f.p - 1)
    n = draw(st.integers(0, 12))
    rows = [[f.coerce(x) for x in row] for row in
            draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          max_size=10))]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows + [
            [f.zero] * c + [f.one] + [f.coerce(draw(entry))
                                      for _ in range(n - 1 - c)]
            for c in range(n)]))
    if rows:
        rows.append([f.zero] * n)
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = (f.coerce(draw(entry)) for _ in range(2))
            rows.append([f.add(f.mul(x, u), f.mul(y, v))
                         for u, v in zip(a, b)])
    return f, n, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_cases())
@example((QQ, 3, []))
@example((GF2, 3, []))
def test_echelon_sparse_and_rref_rows_match_gauss_jordan(case):
    f, n, rows = case
    sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in rows]
    before = [dict(row) for row in sparse]
    echelon = linalg._echelon_sparse(f, n, sparse)
    reduced, pivots = gauss_jordan(f, rows)
    assert rref_rows(f, rows) == (reduced, pivots)
    assert sorted(echelon) == pivots
    for p, row in zip(pivots, reduced):
        stored = echelon[p]
        assert all(x != 0 and type(x) is type(f.one) for x in stored.values())
        assert [stored.get(c, f.zero) for c in range(n)] == list(row)
    assert sparse == before


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_cases())
@example((QQ, 0, [[], []]))
@example((GF5, 0, []))
@example((GF3, 4, []))
def test_canonical_span_and_kernel_match_gauss_jordan(case):
    # the library's own sparse rows against the dense oracle and against
    # the public span/kernel of the same rows written dense
    f, n, rows = case
    sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in rows]
    before = [dict(row) for row in sparse]
    for got, dense, want in (
            (linalg._span_canonical(f, n, sparse), span(f, n, rows),
             gauss_jordan(f, rows)),
            (linalg._kernel_canonical(f, n, sparse), kernel(f, n, rows),
             null_space_gauss_jordan(f, n, rows))):
        basis, pivots = want
        assert (got.ambient_dim, got.pivots) == (n, tuple(pivots))
        assert repr(got.basis) == repr(tuple(map(tuple, basis)))
        assert got == dense and repr(got.basis) == repr(dense.basis)
        # the stored rows: the oracle's nonzero (column, value) pairs
        assert got.rows == dense.rows == tuple(
            tuple((c, x) for c, x in enumerate(row) if x != 0)
            for row in basis) and all(
            type(x) is type(f.one) for row in got.rows + dense.rows
            for _, x in row)
    assert sparse == before


def _canonical_items(echelon):
    """{pivot: row} as sorted items, in the reprs of its scalars, so that
    an int and an equal Fraction tell apart."""
    return repr(sorted((q, sorted(row.items())) for q, row in echelon.items()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sparse_cases(), st.data())
def test_echelon_sparse_does_not_depend_on_the_row_order(case, data):
    f, n, rows = case
    sparse = [{c: x for c, x in enumerate(row) if x != 0} for row in rows]
    shuffled = data.draw(st.permutations(sparse))
    assert _canonical_items(linalg._echelon_sparse(f, n, shuffled)) == \
        _canonical_items(linalg._echelon_sparse(f, n, sparse))


@pytest.mark.parametrize("f", [QQ, GF2, GF3, GF5], ids=str)
def test_echelon_sparse_reads_no_row_past_full_rank(f):
    # the rows run on past the one that makes every column a pivot; the
    # feed fails if the echelon asks for any of them
    rng = random.Random(61)
    for n in (1, 4, 9):
        rows = [[f.random_scalar(rng) if rng.random() < 0.4 else f.zero
                 for _ in range(n)] for _ in range(4 * n)]
        rows += [[f.one] * n] + [
            [f.zero] * c + [f.one] + [f.zero] * (n - 1 - c) for c in range(n)]
        full = next(k for k in range(len(rows))
                    if len(gauss_jordan(f, rows[:k + 1])[1]) == n)
        assert full < len(rows) - 1
        read = []

        def feed():
            for k, row in enumerate(rows):
                if k > full:
                    pytest.fail(f"row {k} read after the rank was full at "
                                f"row {full}")
                read.append(k)
                yield {c: x for c, x in enumerate(row) if x != 0}

        echelon = linalg._echelon_sparse(f, n, feed())
        assert read == list(range(full + 1))
        # the full input's canonical rows: the identity
        reduced, pivots = gauss_jordan(f, rows)
        assert sorted(echelon) == pivots == list(range(n))
        assert _canonical_items(echelon) == _canonical_items(
            {q: {c: x for c, x in enumerate(row) if x != 0}
             for q, row in zip(pivots, reduced)})


def test_rref_canonical_under_row_shuffle():
    rng = random.Random(7)
    for f in (QQ, GF2, GF3, GF5):
        for trial in range(20):
            rows = [[f.random_scalar(rng) for _ in range(4)]
                    for _ in range(3)]
            ref = span(f, 4, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            scaled = []
            for row in shuffled:
                c = f.random_scalar(rng, nonzero=True)
                scaled.append([f.mul(c, x) for x in row])
            assert span(f, 4, scaled).basis == ref.basis


def test_membership_matches_enumeration_gf3():
    rng = random.Random(3)
    for trial in range(10):
        s = _random_subspace(GF3, 3, rng)
        vecs = _enumerate(s)
        for v in itertools.product(range(3), repeat=3):
            assert s.contains(v) == (v in vecs)
    # raw entries count mod p
    assert zero_subspace(GF2, 2).contains((2, 0))
    assert span(GF2, 2, [[1, 0]]).contains((1, 2))
    assert span(GF3, 2, [[1, 0]]).contains((4, 3))


def test_coordinates_reconstruct_vector():
    rng = random.Random(11)
    for f in (QQ, GF5):
        for trial in range(10):
            s = _random_subspace(f, 4, rng)
            if s.dim == 0:
                continue
            coeffs = [f.random_scalar(rng) for _ in range(s.dim)]
            v = [f.zero] * 4
            for c, row in zip(coeffs, s.basis):
                for k, x in enumerate(row):
                    v[k] = f.add(v[k], f.mul(c, x))
            assert coordinates(s, v) == tuple(coeffs)
    # raw GF(2) entries count mod 2
    s = span(GF2, 2, [[1, 0]])
    assert coordinates(s, [1, 2]) == (1,)
    assert coordinates(s, [3, 0]) == (1,)
    assert coordinates(span(GF3, 2, [[1, 0]]), (4, 3)) == (1,)


@pytest.mark.parametrize("make", [span, kernel])
@pytest.mark.parametrize("n", [-3, -2, 2.0, True, "3"])
def test_ambient_dimension_must_be_a_nonnegative_int(make, n):
    with pytest.raises(ShapeError, match="ambient dimension .* is not an int"):
        make(QQ, n, [])


@pytest.mark.parametrize("make", [span, kernel])
def test_numpy_integer_ambient_dimension_accepted(make):
    assert make(QQ, np.int64(2), [[1, 0]]) == make(QQ, 2, [[1, 0]])


def test_coordinates_rejects_outside_vector():
    s = span(QQ, 3, [[1, 0, 0]])
    with pytest.raises(ShapeError):
        coordinates(s, [0, 1, 0])
    with pytest.raises(ShapeError):
        coordinates(span(GF2, 2, [[1, 0]]), [1, 3])


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

def test_kernel_of_rank_one_row():
    k = kernel(QQ, 3, [[1, 0, -1]])
    assert k.basis == ((1, 0, 1), (0, 1, 0))


def test_kernel_of_invertible_matrix_is_zero():
    k = kernel(QQ, 2, [[1, 2], [3, 4]])
    assert k.dim == 0


def test_kernel_gf2_matches_enumeration():
    rows = [[1, 1]]
    k = kernel(GF2, 2, rows)
    assert k.basis == ((1, 1),)
    # enumerate GF(2)^2: exactly (0,0) and (1,1) die
    dead = {v for v in itertools.product(range(2), repeat=2)
            if all(c == 0 for c in apply_rows(GF2, rows, v))}
    assert dead == {(0, 0), (1, 1)}


def test_kernel_vectors_actually_die():
    rng = random.Random(17)
    for f in (QQ, GF2, GF3):
        for trial in range(10):
            rows = [[f.random_scalar(rng) for _ in range(5)]
                    for _ in range(3)]
            k = kernel(f, 5, rows)
            assert k.dim >= 2  # rank <= 3 in ambient dim 5
            for row in k.basis:
                assert all(c == f.zero for c in apply_rows(f, rows, row))


def test_kernel_coerces_and_checks_its_rows():
    # outside input is coerced as span() coerces it: strings, ints and
    # Fractions, reduced mod p over GF(p)
    assert kernel(QQ, 2, [["1/2", 1]]) == kernel(QQ, 2, [[1, 2]])
    assert kernel(GF3, 2, [[4, 5]]) == kernel(GF3, 2, [[1, 2]])
    assert kernel(QQ, 3, []) == full_subspace(QQ, 3)
    for rows in ([[1, 0], [1, 0, 0]], [[1, 0, 0], [1, 0]], [[1, 0]]):
        with pytest.raises(ShapeError):
            kernel(QQ, 3, rows)


@st.composite
def _matrices(draw):
    """Small matrices over Q, GF(2), GF(3) and GF(101), zero rows and
    columns allowed, with repeated rows to force rank deficiency."""
    f = draw(st.sampled_from([QQ, GF2, GF3, FieldSpec.gf(101)]))
    if f.is_rationals:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2),
                                 Fraction(-2, 3)])
    else:
        entry = st.integers(0, f.p - 1)
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    return f, n, [[f.coerce(x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices())
def test_kernel_basis_is_canonical_and_exact(m):
    f, n, rows = m
    k = kernel(f, n, rows)
    assert k == span(f, n, k.basis)
    for row in k.basis:
        assert all(c == f.zero for c in apply_rows(f, rows, row))
    assert k.dim == n - span(f, n, rows).dim


# ----------------------------------------------------------------------
# sum and intersection
# ----------------------------------------------------------------------

def test_sum_of_coordinate_lines():
    a = span(QQ, 3, [[1, 0, 0]])
    b = span(QQ, 3, [[0, 1, 0]])
    s = subspace_sum(a, b)
    assert s.basis == ((1, 0, 0), (0, 1, 0))


def test_sum_with_zero_is_identity():
    v = span(GF3, 4, [[1, 2, 0, 1], [0, 0, 1, 1]])
    assert subspace_sum(v, zero_subspace(GF3, 4)).basis == v.basis


def test_sum_of_independent_lines_is_plane():
    s = subspace_sum(span(QQ, 2, [[1, 1]]), span(QQ, 2, [[1, -1]]))
    assert s.dim == 2  # stacked matrix has rank 2


def test_intersection_with_coordinate_plane():
    a = span(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    b = span(QQ, 3, [[1, 1, 0]])
    assert subspace_intersect(a, b).basis == ((1, 1, 0),)


def test_intersection_idempotent():
    v = span(GF5, 4, [[1, 2, 3, 4], [0, 1, 0, 2]])
    assert subspace_intersect(v, v).basis == v.basis


def test_intersection_gf3_matches_enumeration():
    a = span(GF3, 2, [[1, 0], [0, 1]])
    b = span(GF3, 2, [[1, 1]])
    got = subspace_intersect(a, b)
    assert got.basis == ((1, 1),)
    assert _enumerate(got) == _enumerate(a) & _enumerate(b)


@pytest.mark.parametrize("f", [QQ, GF3])
def test_intersection_with_a_zero_operand_is_zero(f):
    a = span(f, 3, [[1, 2, 0], [0, 1, 1]])
    zero = zero_subspace(f, 3)
    assert subspace_intersect(a, zero) == zero
    assert subspace_intersect(zero, a) == zero
    assert subspace_intersect(zero, zero) == zero
    assert subspace_intersect(zero_subspace(f, 0), zero_subspace(f, 0)) \
        == zero_subspace(f, 0)


def test_intersection_random_against_enumeration():
    rng = random.Random(23)
    for trial in range(15):
        a = _random_subspace(GF2, 4, rng)
        b = _random_subspace(GF2, 4, rng)
        got = _enumerate(subspace_intersect(a, b))
        assert got == _enumerate(a) & _enumerate(b)


def test_dimension_formula_sum_intersection():
    rng = random.Random(29)
    for f in (QQ, GF3):
        for trial in range(15):
            a = _random_subspace(f, 5, rng)
            b = _random_subspace(f, 5, rng)
            assert (subspace_sum(a, b).dim + subspace_intersect(a, b).dim
                    == a.dim + b.dim)


# ----------------------------------------------------------------------
# complements
# ----------------------------------------------------------------------

def test_complement_of_coordinate_line():
    amb = full_subspace(QQ, 2)
    c = complement_in(span(QQ, 2, [[1, 0]]), amb)
    assert c.basis == ((0, 1),)


def test_complement_of_full_space_is_zero():
    v = span(GF2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert complement_in(v, v).dim == 0


def test_complement_picks_non_pivot_coordinates():
    c = complement_in(span(QQ, 3, [[1, 1, 0]]), full_subspace(QQ, 3))
    assert c.basis == ((0, 1, 0), (0, 0, 1))


def test_complement_gives_direct_sum():
    rng = random.Random(31)
    for f in (QQ, GF5):
        for trial in range(10):
            amb = full_subspace(f, 4)
            s = _random_subspace(f, 4, rng)
            c = complement_in(s, amb)
            assert s.dim + c.dim == 4
            assert subspace_intersect(s, c).dim == 0


def test_extend_to_complement_disjoint_and_covering():
    rng = random.Random(37)
    for trial in range(10):
        seed = _random_subspace(GF3, 4, rng, max_rows=2)
        avoid = _random_subspace(GF3, 4, rng, max_rows=2)
        if subspace_intersect(seed, avoid).dim != 0:
            continue
        ext = extend_to_complement(seed, avoid)
        assert ext.contains_subspace(seed)
        assert subspace_intersect(ext, avoid).dim == 0
        assert ext.dim + avoid.dim == 4


@st.composite
def _subspace_pairs(draw):
    """(seed, avoid) in K^n, n in 1..7, each spanned by up to n random
    rows with many zero entries, so that some pairs meet."""
    f = draw(st.sampled_from([QQ, GF2, GF3, GF5]))
    n = draw(st.integers(1, 7))
    if f.is_rationals:
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    else:
        entry = st.one_of(st.just(0), st.integers(0, f.p - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    return tuple(span(f, n, draw(st.lists(row, max_size=n)))
                 for _ in range(2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_subspace_pairs())
def test_extend_to_complement_matches_the_greedy_oracle(pair):
    seed, avoid = pair
    try:
        want = extend_to_complement_greedy(seed, avoid)
    except ShapeError as exc:
        with pytest.raises(ShapeError, match=f"^{re.escape(str(exc))}$"):
            extend_to_complement(seed, avoid)
        return
    got = extend_to_complement(seed, avoid)
    assert got.pivots == want.pivots
    assert repr(got.basis) == repr(want.basis)


def test_extend_to_complement_reduces_at_most_twice(monkeypatch):
    rng = random.Random(53)
    cases = []
    for f in (QQ, GF3):
        seed = _random_subspace(f, 20, rng, max_rows=4)
        avoid = span(f, 20, [[f.random_scalar(rng) if j % 3 == 0 else 0
                              for j in range(20)] for _ in range(3)])
        cases.append((seed, avoid, extend_to_complement_greedy(seed, avoid)))
    # every reduction counts once, whichever routine it enters first: the
    # oracles' rref_rows calls _echelon_sparse (over Q) or _rref_gf (over
    # GF(p)) inside itself, and those inner calls are not counted again
    calls, depth = [], [0]

    def counting(reduce):
        def wrapper(*args):
            if not depth[0]:
                calls.append(reduce.__name__)
            depth[0] += 1
            try:
                return reduce(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for module, name in ((oracles, "rref_rows"), (oracles, "_rref_gf"),
                         (linalg, "_echelon_sparse")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for seed, avoid, want in cases:
        calls.clear()
        assert extend_to_complement(seed, avoid) == want
        assert 0 < len(calls) <= 2, calls


# ----------------------------------------------------------------------
# reduction helpers
# ----------------------------------------------------------------------

def test_reduce_is_zero_exactly_on_members():
    # the residual is the dense loop's, and it is zero exactly when v adds
    # nothing to the rank of the canonical rows
    rng = random.Random(41)
    for f in (QQ, GF2, GF5):
        s = _random_subspace(f, 4, rng)
        values = range(-1, 3) if f.is_rationals else range(f.p)
        for v in itertools.product(values, repeat=4):
            v = [f.coerce(x) for x in v]
            red = s.reduce(v)
            assert red == reduce_dense(s, v)
            rank = len(gauss_jordan(f, [list(r) for r in s.basis] + [v])[1])
            assert (not any(red)) == (rank == s.dim) == s.contains(v)


def test_reduce_rows_matches_single_reduce():
    rng = random.Random(43)
    for f in (QQ, GF2, GF5):
        s = _random_subspace(f, 5, rng)
        rows = [[f.random_scalar(rng) for _ in range(5)] for _ in range(8)]
        batch = [tuple(r) for r in reduce_rows(s, rows)]
        assert batch == [reduce_dense(s, r) for r in rows]
        assert batch == [s.reduce(r) for r in rows]


def test_reduce_coerces_its_entries():
    s = span(QQ, 3, [[1, 2, 3]])
    red = s.reduce([Fraction(3, 2), "1", 0])
    assert red == (0, Fraction(-2), Fraction(-9, 2))
    assert all(type(x) is Fraction for x in red)
    assert span(GF5, 3, [[1, 2, 3]]).reduce([6, 0, -1]) == (0, 3, 1)
    # numpy integers are integers, as they are for indices and dimensions
    for f, want in ((QQ, (0, Fraction(-7), Fraction(-12))),
                    (GF5, (0, 3, 3))):
        line = span(f, 3, [[np.int64(1), np.int32(2), np.uint8(3)]])
        assert line == span(f, 3, [[1, 2, 3]])
        red = line.reduce([np.int64(2), np.int16(-3), np.int64(-6)])
        assert red == want and all(type(x) is type(f.one) for x in red)
        assert line.contains([np.int64(-1), -2, np.int64(-3)])
    assert span(GF3, 2, [[np.int64(1), 0]]).rows == (((0, 1),),)
    for bad in ([1.5, 0, 0], [1, 2, "x"], [np.float64(1), 0, 0],
                [True, 0, 0], [np.bool_(True), 0, 0]):
        with pytest.raises(FieldError):
            s.reduce(bad)
        with pytest.raises(FieldError):
            s.contains(bad)
        with pytest.raises(FieldError):
            span(GF5, 3, [bad])
    for bad in (5, None):
        with pytest.raises(ShapeError, match="is not a sequence$"):
            s.reduce(bad)
        with pytest.raises(ShapeError, match="is not a sequence$"):
            s.contains(bad)


def _row_id(bad):
    # a memoryview's repr carries its address, which changes run to run
    if isinstance(bad, memoryview):
        return f"memoryview({bytes(bad)!r})"
    return repr(bad)


@pytest.mark.parametrize("bad", ["123", "246", b"123", bytearray(b"123"),
                                 memoryview(b"123")], ids=_row_id)
def test_a_str_or_bytes_row_is_refused(bad):
    # a string used to be read as a row of one-character scalars:
    # span(QQ, 3, ['123']) was the line through (1, 2, 3), and
    # span(QQ, 3, [[1, 2, 3]]).contains('246') was True
    line = span(QQ, 3, [[1, 2, 3]])
    for call in (lambda: span(QQ, 3, [bad]), lambda: kernel(GF3, 3, [bad]),
                 lambda: line.reduce(bad), lambda: line.contains(bad)):
        with pytest.raises(ShapeError, match="is not a sequence$"):
            call()


@pytest.mark.parametrize("n, bad", [
    (2, {0: 5, 1: 7}), (3, {3, 1, 2}), (2, frozenset({0, 1})),
    (2, MappingProxyType({0: 5, 1: 7})), (2, {0: 5, 1: 7}.keys())],
    ids=repr)
def test_a_mapping_or_set_row_is_refused(n, bad):
    # a mapping used to be read as its keys: span(QQ, 2, [{0: 5, 1: 7}])
    # was the line through (0, 1), not (5, 7), and kernel(QQ, 2, [{0: 5,
    # 1: 7}]) the line through (1, 0); a set was read in iteration order
    line = span(QQ, n, [[1] * n])
    for call in (lambda: span(QQ, n, [bad]), lambda: kernel(GF3, n, [bad]),
                 lambda: line.reduce(bad), lambda: line.contains(bad)):
        with pytest.raises(ShapeError, match="is not a sequence$"):
            call()


def test_coordinate_subspace_shape():
    s = coordinate_subspace(QQ, 4, [1, 3])
    assert s.basis == ((0, 1, 0, 0), (0, 0, 0, 1))


def test_span_is_equal_ignores_presentation():
    a = span(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    b = span(QQ, 3, [[2, 2, 2], [0, 0, -1]])
    assert a == b
    assert a != span(QQ, 3, [[1, 0, 0]])


@pytest.mark.parametrize("f", [QQ, GF3], ids=str)
def test_hash_is_cached_outside_equality_and_repr(f):
    # a subspace spanned two ways is equal and hashes equal, whichever is
    # hashed first; the hash is kept from the first call, and equality
    # and repr do not see it
    a = span(f, 3, [[1, 1, 0], [0, 0, 1]])
    b = span(f, 3, [[2, 2, 2], [0, 0, -1]])
    assert a._hash is None and b._hash is None
    h = hash(a)
    assert a._hash == h == hash((f, 3, a.rows, a.pivots))
    assert a == b and b._hash is None
    assert hash(b) == h and hash(a) == h
    assert repr(a) == repr(b) == f"Subspace({f}, dim 2 of 3)"
    assert {a: 1}[b] == 1
    c = span(f, 3, [[1, 0, 0]])
    assert a != c and hash(c) != h


def test_contains_subspace():
    big = span(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    small = span(QQ, 3, [[1, 1, 0]])
    assert big.contains_subspace(small)
    assert not small.contains_subspace(big)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_cases(), st.data())
def test_contains_subspace_matches_the_dense_rank(case, data):
    # rows split into the spans a and b; the later rows of a case are
    # often combinations of earlier ones, so b lies in a now and then,
    # and a subspan of a always does
    f, n, rows = case
    cut = data.draw(st.integers(0, len(rows)))
    a, b = span(f, n, rows[:cut]), span(f, n, rows[cut:])
    part = span(f, n, rows[:data.draw(st.integers(0, cut))])
    for big, small in ((a, b), (b, a), (a, part)):
        stacked = [list(r) for r in big.basis + small.basis]
        want = len(gauss_jordan(f, stacked)[1]) == big.dim
        assert big.contains_subspace(small) is want
        assert want == (not any(any(reduce_dense(big, r))
                                for r in small.basis))
    assert a.contains_subspace(part)


# ----------------------------------------------------------------------
# right inverse (sections of surjective maps)
# ----------------------------------------------------------------------

def test_right_inverse_on_surjective_maps():
    rng = random.Random(47)
    for f in (QQ, GF2, GF3):
        for trial in range(10):
            rows = [[f.random_scalar(rng) for _ in range(5)]
                    for _ in range(3)]
            if span(f, 5, rows).dim < 3:
                continue  # row rank 3 <=> surjective onto f^3
            sec = solve_right_inverse(f, rows, 5)
            assert len(sec) == 5 and all(len(r) == 3 for r in sec)
            for j in range(3):
                e = [f.one if i == j else f.zero for i in range(3)]
                assert apply_rows(f, rows, apply_rows(f, sec, e)) == tuple(e)


def test_right_inverse_requires_surjectivity():
    rows = [[QQ.one, QQ.zero], [QQ.coerce(2), QQ.zero]]  # rank 1, target dim 2
    with pytest.raises(ShapeError):
        solve_right_inverse(QQ, rows, 2)


# ----------------------------------------------------------------------
# mixed-field guards
# ----------------------------------------------------------------------

def test_operations_reject_mixed_fields():
    a = span(QQ, 2, [[1, 0]])
    b = span(GF2, 2, [[1, 0]])
    with pytest.raises(ShapeError):
        subspace_sum(a, b)
    with pytest.raises(ShapeError):
        subspace_intersect(a, b)


def test_operations_reject_mixed_ambient_dims():
    a = span(QQ, 2, [[1, 0]])
    b = span(QQ, 3, [[1, 0, 0]])
    with pytest.raises(ShapeError):
        subspace_sum(a, b)
