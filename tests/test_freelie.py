"""Free nilpotent Lie algebras on Hall-tree bases."""

import pytest

from liecap import GF2, GF3, QQ
from liecap.errors import NotNilpotentError, ResourceError, ShapeError
from liecap.catalog import build
from liecap.freelie import (
    free_dimension,
    free_nilpotent,
    hall_basis,
    tree_degree,
    witt_dimension,
)

from oracles import extend_hom, lyndon_count


# ----------------------------------------------------------------------
# dimension counts
# ----------------------------------------------------------------------

def test_witt_dimensions_match_lyndon_word_enumeration():
    for d in (1, 2, 3, 5):
        for k in (1, 2, 3, 4):
            assert witt_dimension(d, k) == lyndon_count(d, k), (d, k)
    assert witt_dimension(7, 3) == lyndon_count(7, 3) == 112


def test_witt_dimension_spot_values():
    assert [witt_dimension(2, k) for k in (1, 2, 3, 4)] == [2, 1, 2, 3]
    assert [witt_dimension(3, k) for k in (1, 2, 3)] == [3, 3, 8]
    assert witt_dimension(7, 4) == 588


def test_free_dimension_is_partial_sum():
    assert free_dimension(2, 3) == 5
    assert free_dimension(2, 4) == 8
    assert free_dimension(5, 3) == 55
    assert free_dimension(7, 3) == 140


def test_hall_basis_per_degree_counts():
    trees = hall_basis(2, 4)
    by_degree = [sum(1 for t in trees if tree_degree(t) == k)
                 for k in (1, 2, 3, 4)]
    assert by_degree == [2, 1, 2, 3]

    trees = hall_basis(3, 3)
    by_degree = [sum(1 for t in trees if tree_degree(t) == k)
                 for k in (1, 2, 3)]
    assert by_degree == [3, 3, 8]


def test_single_generator_has_no_higher_degrees():
    for c in (1, 2, 3, 5):
        trees = hall_basis(1, c)
        assert trees == [0]


def test_hall_basis_ordered_by_degree():
    trees = hall_basis(3, 4)
    degs = [tree_degree(t) for t in trees]
    assert degs == sorted(degs)


# ----------------------------------------------------------------------
# structure constants
# ----------------------------------------------------------------------

def test_reversed_generator_bracket_is_negated_hall_element():
    F = free_nilpotent(2, 2, QQ)
    assert F.index[(0, 1)] == 2
    assert F.algebra.bracket_basis(0, 1) == {2: 1}
    assert F.algebra.bracket_basis(1, 0) == {2: -1}


def test_brackets_beyond_class_truncate_to_zero():
    F = free_nilpotent(2, 2, QQ)
    # degree 1 + degree 2 = degree 3 > c = 2
    assert F.algebra.bracket_basis(0, F.index[(0, 1)]) == {}


def test_degree_three_brackets_span_independently():
    F = free_nilpotent(2, 3, QQ)
    a = F.algebra.bracket(F.algebra.basis_vector(2), F.algebra.basis_vector(0))
    b = F.algebra.bracket(F.algebra.basis_vector(2), F.algebra.basis_vector(1))
    from liecap import span
    assert span(QQ, 5, [a, b]).dim == 2 == witt_dimension(2, 3)


def test_two_generator_class_two_is_heisenberg():
    F = free_nilpotent(2, 2, QQ)
    assert F.algebra.same_table(build("H", QQ, m=1))


def test_free_algebra_dims():
    assert free_nilpotent(2, 3, QQ).dim == 5
    assert free_nilpotent(5, 3, GF2).dim == 55


def test_free_algebras_satisfy_jacobi_small():
    for d, c in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        for f in (QQ, GF3):
            assert free_nilpotent(d, c, f).algebra.validate().ok, (d, c, f)


def test_free_algebra_nilpotency_class_is_c():
    for d, c in ((2, 2), (2, 4), (3, 3)):
        assert free_nilpotent(d, c, QQ).algebra.nilpotency_class() == c


def test_degree_bookkeeping():
    F = free_nilpotent(2, 4, QQ)
    assert list(F.degrees) == [1, 1, 2, 3, 3, 4, 4, 4]
    assert list(range(F.d)) == [0, 1]
    assert list(range(F.d, F.dim)) == [2, 3, 4, 5, 6, 7]
    assert F.degrees.index(2) == 2
    assert F.degrees.index(3) == 3
    assert F.degrees.index(4) == 5


def test_instances_have_equal_tables():
    assert free_nilpotent(2, 3, QQ).algebra.same_table(
        free_nilpotent(2, 3, QQ).algebra)


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------

def test_resource_guard_rejects_huge_instances():
    with pytest.raises(ResourceError):
        free_nilpotent(8, 5, QQ)


def test_shape_guard_rejects_degenerate_parameters():
    with pytest.raises(ShapeError):
        free_nilpotent(0, 2, QQ)
    with pytest.raises(ShapeError):
        free_nilpotent(2, 0, QQ)


# ----------------------------------------------------------------------
# the universal property: extend_hom, from the presentation oracle
# ----------------------------------------------------------------------

def test_extension_to_heisenberg_is_invertible():
    F = free_nilpotent(2, 2, QQ)
    H = build("H", QQ, m=1)
    phi = extend_hom(F, H, [H.basis_vector(0), H.basis_vector(1)])
    assert phi.is_bracket_compatible()
    assert phi.image().dim == 3
    assert phi.kernel().dim == 0


def test_extension_of_zero_images_kills_everything():
    F = free_nilpotent(2, 3, GF2)
    A = build("A", GF2, n=2)
    phi = extend_hom(F, A, [(0, 0), (0, 0)])
    assert phi.kernel().dim == F.dim
    assert phi.image().dim == 0


def test_extension_onto_four_dim_chain():
    F = free_nilpotent(2, 4, QQ)
    L = build("L4_3", QQ)
    phi = extend_hom(F, L, [L.basis_vector(0), L.basis_vector(1)])
    assert phi.is_bracket_compatible()
    assert phi.image().dim == 4
    assert phi.kernel().dim == F.dim - 4 == 4


def test_extension_is_bracket_compatible_on_random_images():
    import random
    rng = random.Random(71)
    L = build("L5_8", GF3)
    F = free_nilpotent(3, 2, GF3)
    for _ in range(5):
        images = [tuple(GF3.random_scalar(rng) for _ in range(5))
                  for _ in range(3)]
        assert extend_hom(F, L, images).is_bracket_compatible()


def test_extension_rejects_wrong_image_count():
    F = free_nilpotent(2, 2, QQ)
    H = build("H", QQ, m=1)
    with pytest.raises(ShapeError):
        extend_hom(F, H, [H.basis_vector(0)])


def test_extension_rejects_target_of_higher_class():
    F = free_nilpotent(2, 2, QQ)  # class 2 only
    L = build("L4_3", QQ)  # class 3
    with pytest.raises(NotNilpotentError):
        extend_hom(F, L, [L.basis_vector(0), L.basis_vector(1)])


def test_extension_rejects_field_mismatch():
    F = free_nilpotent(2, 2, QQ)
    H = build("H", GF2, m=1)
    with pytest.raises(ShapeError):
        extend_hom(F, H, [H.basis_vector(0), H.basis_vector(1)])
