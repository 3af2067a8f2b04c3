"""Named algebra constructions, parameter validation, and the seeded
random sampler."""

import numpy as np
import pytest

from liecap import GF2, GF3, GF5, QQ, LieAlgebra, catalog
from liecap.errors import FieldError, ScopeError
from liecap.catalog import (
    CATALOG,
    build,
    eps_values,
    random_gen_heisenberg,
    standard_instances,
)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_catalog_names_cover_expected_families():
    names = set(CATALOG)
    assert {"A", "H", "L4_3", "L5_5", "L5_7", "L5_8", "L6_10", "L6_13",
            "L6_22", "L6_7_2", "L27A", "L27B"} <= names


def test_heisenberg_rank_two_shape():
    H = build("H", QQ, m=2)
    assert H.dim == 5
    assert H.derived_subalgebra().basis == H.center().basis
    assert H.center().dim == 1


def test_six_dim_family_is_gen_heisenberg_over_gf3():
    L = build("L6_22", GF3, eps=1)
    assert L.dim == 6
    p = L.structural_profile()
    assert p.is_stem and p.gen_heisenberg_rank == 2


def test_dims_of_fixed_names():
    dims = {"L4_3": 4, "L5_5": 5, "L5_7": 5, "L5_8": 5,
            "L6_10": 6, "L6_13": 6, "L27A": 7, "L27B": 7}
    for name, d in dims.items():
        assert build(name, QQ).dim == d


def test_abelian_any_size():
    assert build("A", QQ, n=0).dim == 0
    assert build("A", GF5, n=6).table == {}


def test_instances_are_cached():
    assert build("L4_3", QQ) is build("L4_3", QQ)
    assert build("L6_22", QQ, eps=1) is build("L6_22", QQ, eps=1)


def test_names_embed_parameters():
    assert build("H", QQ, m=3).name == "H(3)"
    assert build("L6_22", QQ, eps=-1).name == "L6_22(eps=-1)"
    assert build("L6_7_2", GF2, eta=1).name == "L6_7_2(eta=1)"


# ----------------------------------------------------------------------
# characteristic guards
# ----------------------------------------------------------------------

def test_eps_family_refuses_characteristic_two():
    with pytest.raises(FieldError):
        build("L6_22", GF2, eps=1)


def test_eta_family_requires_characteristic_two():
    for f in (QQ, GF3, GF5):
        with pytest.raises(FieldError):
            build("L6_7_2", f, eta=0)


def test_eta_value_must_be_zero_or_the_witness():
    assert build("L6_7_2", GF2, eta=0).dim == 6
    assert build("L6_7_2", GF2, eta=1).dim == 6


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        build("L9_99", QQ)


def test_missing_required_parameter_rejected():
    with pytest.raises(ValueError):
        build("H", QQ)
    with pytest.raises(ValueError):
        build("A", QQ)
    with pytest.raises(ValueError):
        build("L6_22", QQ)


def test_unexpected_parameter_rejected():
    with pytest.raises(ValueError):
        build("L4_3", QQ, n=1)
    with pytest.raises(ValueError):
        build("H", QQ, m=1, eps=0)


def test_parameter_ranges():
    # n=True and n=1.5 used to raise ShapeError from the constructor, and
    # n="3" a raw TypeError
    for n in (-1, True, 1.5, "3"):
        with pytest.raises(ValueError, match=r"A\(n\) needs an int n >= 0"):
            build("A", QQ, n=n)
    # m=True used to give H(1) named "H(True)", from the cache too once H(1)
    # was built, and m=1.5 a raw TypeError from range()
    assert build("H", QQ, m=1).name == "H(1)"
    for m in (0, True, 1.5):
        with pytest.raises(ValueError, match=r"H\(m\) needs an int m >= 1"):
            build("H", QQ, m=m)
    assert build("H", QQ, m=np.int64(2)).name == "H(2)"


# ----------------------------------------------------------------------
# parameter sweeps
# ----------------------------------------------------------------------

def test_eps_sweep_deduplicates_per_field():
    assert eps_values(QQ) == [0, 1, -1, 2]
    assert eps_values(GF3) == [0, 1, 2]
    assert eps_values(GF5) == [0, 1, 4, 2]


def test_standard_instances_counts_and_validity():
    expected = {QQ: 16, GF2: 14, GF3: 15, GF5: 16}
    for f, count in expected.items():
        instances = standard_instances(f)
        assert len(instances) == count
        names = [L.name for L in instances]
        assert len(set(names)) == count  # no duplicates
        for L in instances:
            assert L.validate().ok
            assert L.field == f


def test_standard_instances_respect_characteristic():
    for L in standard_instances(GF2):
        assert not L.name.startswith("L6_22")
    for L in standard_instances(QQ):
        assert not L.name.startswith("L6_7_2")


# ----------------------------------------------------------------------
# random generalized Heisenberg sampler
# ----------------------------------------------------------------------

def test_sampler_output_shape():
    # the sampler runs no Jacobi check of its own: its docstring argues
    # that every accepted sample passes one, and this checks it
    for f in (GF2, GF3, GF5):
        for seed in range(50):
            L = random_gen_heisenberg(7, 2, f, seed=seed)
            assert L.dim == 7
            assert L.derived_subalgebra().dim == 2
            assert L.derived_subalgebra() == L.center()
            assert L.validate().ok, (f, seed)


def test_sampler_is_deterministic():
    a = random_gen_heisenberg(7, 2, GF2, seed=1)
    b = random_gen_heisenberg(7, 2, GF2, seed=1)
    assert a.same_table(b)


# random_gen_heisenberg(7, 2, GF(p), seed=s).table by (p, s).  Seed 0 over
# GF(2), 59 over GF(3) and 115 over GF(5) reject their first candidate.
SAMPLER_TABLES = {
    (2, 0):
        {(0, 1): {5: 1}, (0, 2): {5: 1, 6: 1}, (0, 3): {5: 1},
         (0, 4): {5: 1, 6: 1}, (1, 2): {5: 1}, (1, 4): {5: 1},
         (2, 3): {5: 1, 6: 1}, (2, 4): {6: 1}},
    (2, 1):
        {(0, 2): {5: 1}, (0, 3): {5: 1, 6: 1}, (0, 4): {5: 1, 6: 1},
         (1, 3): {5: 1}, (1, 4): {5: 1, 6: 1}, (2, 3): {6: 1}, (2, 4): {5: 1},
         (3, 4): {6: 1}},
    (2, 2):
        {(0, 2): {6: 1}, (0, 3): {6: 1}, (0, 4): {5: 1}, (1, 3): {5: 1, 6: 1},
         (1, 4): {5: 1, 6: 1}, (2, 3): {5: 1}, (2, 4): {6: 1},
         (3, 4): {5: 1, 6: 1}},
    (3, 0):
        {(0, 1): {5: 1, 6: 1}, (0, 2): {6: 1}, (0, 3): {5: 2, 6: 1},
         (0, 4): {5: 1, 6: 1}, (1, 2): {5: 1, 6: 1}, (1, 3): {5: 2},
         (1, 4): {5: 2}, (2, 3): {5: 1}, (2, 4): {6: 2}, (3, 4): {5: 1, 6: 2}},
    (3, 1):
        {(0, 1): {6: 2}, (0, 2): {6: 1}, (0, 3): {6: 1}, (0, 4): {5: 1, 6: 1},
         (1, 2): {5: 2, 6: 1}, (1, 4): {5: 1}, (2, 3): {5: 1, 6: 1},
         (2, 4): {5: 2}, (3, 4): {5: 2, 6: 1}},
    (3, 59):
        {(0, 1): {5: 1, 6: 2}, (0, 2): {6: 2}, (0, 4): {5: 1, 6: 2},
         (1, 2): {6: 1}, (1, 3): {5: 1}, (2, 3): {5: 2}, (2, 4): {5: 2, 6: 2},
         (3, 4): {6: 1}},
    (5, 0):
        {(0, 1): {5: 3, 6: 3}, (0, 2): {6: 2}, (0, 3): {5: 4, 6: 3},
         (0, 4): {5: 3, 6: 2}, (1, 2): {5: 3, 6: 2}, (1, 3): {5: 4, 6: 1},
         (1, 4): {5: 4, 6: 1}, (2, 3): {5: 2, 6: 1}, (2, 4): {6: 4},
         (3, 4): {5: 2, 6: 4}},
    (5, 1):
        {(0, 1): {5: 1, 6: 4}, (0, 2): {6: 2}, (0, 3): {6: 3},
         (0, 4): {5: 3, 6: 3}, (1, 2): {5: 3, 6: 1}, (1, 3): {6: 3},
         (1, 4): {6: 3}, (2, 3): {5: 3, 6: 4}, (2, 4): {6: 3},
         (3, 4): {5: 2, 6: 1}},
    (5, 115):
        {(0, 1): {5: 4, 6: 1}, (0, 2): {5: 1, 6: 1}, (0, 3): {5: 1, 6: 4},
         (0, 4): {5: 1, 6: 1}, (1, 2): {5: 3}, (1, 3): {5: 1, 6: 4},
         (1, 4): {5: 2, 6: 4}, (2, 3): {5: 1, 6: 2}, (2, 4): {5: 4, 6: 1},
         (3, 4): {5: 2, 6: 3}},
}


@pytest.mark.parametrize("key", list(SAMPLER_TABLES))
def test_sampler_tables_are_pinned(key):
    # the draw order of the sampler fixes the algebras the benchmark's
    # dim7_sweep builds, and so its pinned answers hash
    p, seed = key
    f = {2: GF2, 3: GF3, 5: GF5}[p]
    assert random_gen_heisenberg(7, 2, f, seed=seed).table == \
        SAMPLER_TABLES[key]


@pytest.mark.parametrize("key", list(SAMPLER_TABLES))
def test_sampler_rank_rule_matches_the_center(key):
    # every candidate a pinned seed draws, up to the one it accepts:
    # dim Z(L) = 7 - rank(ad), so the rank rule (rank g = 5) accepts
    # exactly when dim Z(L) = 2.  GF(2) seed 0, GF(3) seed 59 and GF(5)
    # seed 115 reject their first draw, whose center has dimension 3
    p, seed = key
    f = {2: GF2, 3: GF3, 5: GF5}[p]
    rejected = []
    for table in catalog._draws(f, 7, 5, seed):
        L = LieAlgebra(f, 7, table)
        rank = catalog._ad_rank(f, 7, 5, table)
        assert rank == 7 - L.center().dim
        if rank == 5 and L.derived_subalgebra().dim == 2:
            break
        rejected.append(rank)
    assert table == SAMPLER_TABLES[key]
    assert rejected == ([4] if key in ((2, 0), (3, 59), (5, 115)) else [])


def test_sampler_varies_with_seed():
    tables = {tuple(sorted(
        (pair, tuple(sorted(entry.items())))
        for pair, entry in random_gen_heisenberg(7, 2, GF2, seed=s)
        .table.items()))
        for s in range(12)}
    assert len(tables) > 1


def test_sampler_scope_guards():
    with pytest.raises(ScopeError):
        random_gen_heisenberg(6, 2, GF2, seed=0)
    with pytest.raises(ScopeError):
        random_gen_heisenberg(7, 3, GF2, seed=0)
    with pytest.raises(ScopeError):
        random_gen_heisenberg(7, 2, QQ, seed=0)


def test_sampler_works_over_other_primes():
    L = random_gen_heisenberg(7, 2, GF5, seed=3)
    assert L.center().dim == 2
    p = L.structural_profile()
    assert p.is_stem and p.gen_heisenberg_rank == 2
