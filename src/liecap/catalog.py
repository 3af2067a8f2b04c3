"""Named algebra constructors and the seeded generalized-Heisenberg sampler.

Tables transcribe the standard presentations with basis index l meaning
x_{l+1}; emitted files are 1-based so they read like the presentations.
Characteristic constraints are enforced here: L6_22 needs char != 2,
L6_7_2 lives over GF(2) with eta in {0, omega} = {0, 1}.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice
from typing import Optional

from .errors import FieldError, ResourceError, ScopeError, ShapeError
from .field import FieldSpec, Scalar
from .liealg import LieAlgebra
from .linalg import _echelon_sparse, _is_int

MAX_SAMPLER_TRIES = 1000

# name -> (required params, description)
CATALOG = {
    "A": (("n",), "abelian algebra of dimension n"),
    "H": (("m",), "Heisenberg algebra of dimension 2m+1"),
    "L4_3": ((), "maximal-class algebra of dimension 4"),
    "L5_5": ((), "class-3 stem algebra of dimension 5"),
    "L5_7": ((), "maximal-class algebra of dimension 5"),
    "L5_8": ((), "rank-2 generalized Heisenberg algebra of dimension 5"),
    "L6_7_2": (("eta",), "rank-2 generalized Heisenberg algebra of dimension 6, char 2"),
    "L6_10": ((), "class-3 stem algebra of dimension 6"),
    "L6_13": ((), "class-4 algebra of dimension 6"),
    "L6_22": (("eps",), "rank-2 generalized Heisenberg algebra of dimension 6, char != 2"),
    "L27A": ((), "capable rank-2 generalized Heisenberg algebra of dimension 7"),
    "L27B": ((), "non-capable rank-2 generalized Heisenberg algebra of dimension 7"),
}


# the parameter-free algebras: name -> (dim, table with coefficients 1)
_FIXED = {
    "L4_3": (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    "L5_5": (5, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 3): {4: 1}}),
    "L5_7": (5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}),
    "L5_8": (5, {(0, 1): {3: 1}, (0, 2): {4: 1}}),
    "L6_10": (6, {(0, 1): {2: 1}, (0, 2): {5: 1}, (3, 4): {5: 1}}),
    "L6_13": (6, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 3): {4: 1},
                  (0, 4): {5: 1}, (2, 3): {5: 1}}),
    "L27A": (7, {(0, 1): {5: 1}, (2, 3): {5: 1}, (0, 4): {6: 1},
                 (1, 2): {6: 1}}),
    "L27B": (7, {(0, 1): {5: 1}, (0, 3): {6: 1}, (2, 4): {6: 1}}),
}


@lru_cache(maxsize=None, typed=True)
def build(name: str, field: FieldSpec, n: Optional[int] = None,
          m: Optional[int] = None, eps: Optional[Scalar] = None,
          eta: Optional[Scalar] = None) -> LieAlgebra:
    """Construct a catalog algebra over the given field.

    Scalar parameters are coerced into the field; unknown names and
    parameter or characteristic violations raise.
    """
    if name not in CATALOG:
        raise ValueError(f"unknown catalog name {name!r}; "
                         f"known: {', '.join(CATALOG)}")
    required = CATALOG[name][0]
    given = {"n": n, "m": m, "eps": eps, "eta": eta}
    for key, val in given.items():
        if key in required and val is None:
            raise ValueError(f"{name} requires parameter {key}")
        if key not in required and val is not None:
            raise ValueError(f"{name} does not take parameter {key}")

    if name == "A":
        if not _is_int(n) or n < 0:
            raise ValueError(f"A(n) needs an int n >= 0, not {n!r}")
        return _validated(LieAlgebra(field, n, {}, name=f"A({n})"))

    if name == "H":
        if not _is_int(m) or m < 1:
            raise ValueError(f"H(m) needs an int m >= 1, not {m!r}")
        table = {(2 * l, 2 * l + 1): {2 * m: field.one} for l in range(m)}
        return _validated(LieAlgebra(field, 2 * m + 1, table, name=f"H({m})"))

    if name == "L6_22":
        if field.characteristic == 2:
            raise FieldError("L6_22 requires characteristic != 2")
        e = field.coerce(eps)
        table = {(0, 1): {4: field.one}, (2, 3): {4: field.one},
                 (0, 2): {5: field.one}}
        if e != field.zero:
            table[(1, 3)] = {5: e}
        return _validated(LieAlgebra(
            field, 6, table, name=f"L6_22(eps={field.format(e)})"))

    if name == "L6_7_2":
        if field.characteristic != 2:
            raise FieldError("L6_7_2 requires characteristic 2")
        e = field.coerce(eta)
        if e not in (field.zero, field.omega()):
            raise ValueError(
                "eta must be 0 or a non-square-class witness (1 over GF(2))")
        table = {(0, 1): {4: field.one}, (0, 2): {5: field.one},
                 (2, 3): {4: field.one, 5: field.one}}
        if e != field.zero:
            table[(1, 3)] = {5: e}
        return _validated(LieAlgebra(
            field, 6, table, name=f"L6_7_2(eta={field.format(e)})"))

    dim, table = _FIXED[name]
    return _validated(LieAlgebra(field, dim, table, name=name))


def _validated(L: LieAlgebra) -> LieAlgebra:
    if not L.validate().ok:
        raise ShapeError(f"catalog table for {L.name} violates Jacobi")
    return L


def eps_values(field: FieldSpec) -> list:
    """Distinct coerced values of the sweep {0, 1, -1, 2} in this field."""
    out = []
    for raw in (0, 1, -1, 2):
        v = field.coerce(raw)
        if v not in out:
            out.append(v)
    return out


def standard_instances(field: FieldSpec) -> list:
    """Every catalog algebra buildable over the field, fixed parameter
    sweep, deterministic order."""
    return [
        build("A", field, n=3),
        build("H", field, m=1),
        build("H", field, m=2),
        build("H", field, m=3),
        build("L4_3", field),
        build("L5_5", field),
        build("L5_7", field),
        build("L5_8", field),
        build("L6_10", field),
        build("L6_13", field),
        *rank2_dim6(field),
        build("L27A", field),
        build("L27B", field),
    ]


def rank2_dim6(field: FieldSpec) -> list:
    """The rank-2 dim-6 family over the field: L6_7_2 at eta in {0, omega}
    in characteristic 2, else L6_22 at each of eps_values."""
    if field.characteristic == 2:
        return [build("L6_7_2", field, eta=e) for e in (0, field.omega())]
    return [build("L6_22", field, eps=e) for e in eps_values(field)]


def random_gen_heisenberg(dim: int, rank: int, field: FieldSpec,
                          seed: int) -> LieAlgebra:
    """Seeded sample with derived subalgebra = center = the last `rank`
    coordinates, obtained by accept/reject over random central brackets.

    Each draw (_draws) sends every pair i < j < g of the g = dim - rank
    generators into W, the span of the indices >= g, which are in no
    pair: W is central and every Jacobi term brackets a central vector.
    So the center is W plus the kernel of ad on span(e_0, ..., e_{g-1}),
    and dim Z(L) = dim - rank(ad).  A draw is accepted when the
    generators' ad rows have rank g (_ad_rank, one echelon of g short
    rows), so Z(L) = W, and when dim L^2 = rank; then L^2 <= W = Z(L) and
    equal dimensions make them equal.  An accepted sample needs no
    further check.

    Current scope is dim 7, rank 2, finite fields.
    """
    if dim != 7 or rank != 2:
        raise ScopeError("sampler currently supports dim=7, rank=2 only")
    if field.is_rationals:
        raise ScopeError("sampler requires a finite field")
    g = dim - rank  # non-central generators
    for table in islice(_draws(field, dim, g, seed), MAX_SAMPLER_TRIES):
        if _ad_rank(field, dim, g, table) != g:
            continue
        L = LieAlgebra(field, dim, table,
                       name=f"genH(dim={dim},rank={rank},seed={seed})")
        if L.derived_subalgebra().dim != rank:
            continue
        return L
    raise ResourceError(
        f"sampler rejected {MAX_SAMPLER_TRIES} candidates "
        f"(dim={dim}, rank={rank}, seed={seed})")


def _draws(field: FieldSpec, dim: int, g: int, seed: int):
    """The sampler's candidate tables, endlessly: each pair i < j < g in
    turn gets a random coefficient in GF(p) at each index >= g, and the
    entry is kept when one is nonzero."""
    rng = random.Random(seed)
    p = field.p
    central = range(g, dim)
    while True:
        table = {}
        for i in range(g):
            for j in range(i + 1, g):
                entry = {k: c for k in central if (c := rng.randrange(p))}
                if entry:
                    table[(i, j)] = entry
        yield table


def _ad_rank(field: FieldSpec, dim: int, g: int, table: dict) -> int:
    """The rank of ad on span(e_0, ..., e_{g-1}) for a drawn table: the
    row of e_i holds [e_i, e_j]_k at column j * dim + k, read off the
    entry (i, j) and, negated, off (j, i)."""
    p = field.p
    rows = [{} for _ in range(g)]
    for (i, j), entry in table.items():
        for k, c in entry.items():
            rows[i][j * dim + k] = c
            rows[j][i * dim + k] = -c % p
    return len(_echelon_sparse(field, g * dim, rows))
