"""Free nilpotent Lie algebras on Hall-tree bases, with bracket rewriting.

Hall trees are nested tuples: a leaf is a generator index, a node is a pair
(left, right).  The basis order is degree first, then a recursive structural
key (generator index at leaves, pair of child keys at nodes), which is a
fixed admissible order: degree-compatible and deterministic.

A tree t = (l, r) is a Hall tree when l and r are Hall trees with l < r and,
if r = (r1, r2) is a node, r1 <= l.  Arbitrary brackets of basis elements are
rewritten into the basis with antisymmetry and the Jacobi identity
([u,[a,b]] = [[u,a],b] + [a,[u,b]]); per-degree counts are checked against
the Witt formula at construction, and validate() on the result is the
decisive correctness check exercised by the tests.

Structure constants are computed once over the integers per (d, c) and then
coerced into the requested field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Union

from .errors import ResourceError, ShapeError
from .field import FieldSpec
from .liealg import DEFAULT_MAX_DIM, LieAlgebra
from .linalg import _is_int

HallTree = Union[int, tuple]


# ======================================================================
# trees and their order
# ======================================================================

def tree_degree(t: HallTree) -> int:
    if isinstance(t, int):
        return 1
    return tree_degree(t[0]) + tree_degree(t[1])


def _struct_key(t: HallTree):
    if isinstance(t, int):
        return (0, t)
    return (1, _struct_key(t[0]), _struct_key(t[1]))


def tree_order_key(t: HallTree):
    """Total order on Hall trees: degree, then structural key."""
    return (tree_degree(t), _struct_key(t))


def _is_hall_pair(l: HallTree, r: HallTree) -> bool:
    """Given Hall trees l < r, is (l, r) itself a Hall tree?"""
    if isinstance(r, int):
        return True
    return tree_order_key(r[0]) <= tree_order_key(l)


# ======================================================================
# Witt dimensions
# ======================================================================

def _mobius(n: int) -> int:
    result = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(d: int, k: int) -> int:
    """Number of degree-k Hall basis elements on d generators:
    (1/k) sum_{m | k} mu(m) d^(k/m)."""
    total = 0
    for m in range(1, k + 1):
        if k % m == 0:
            total += _mobius(m) * d ** (k // m)
    if total % k:
        raise ShapeError(f"Witt sum {total} not divisible by {k}")
    return total // k


def free_dimension(d: int, c: int) -> int:
    return sum(witt_dimension(d, k) for k in range(1, c + 1))


# ======================================================================
# Hall basis and integer structure constants (cached per (d, c))
# ======================================================================

def _degree_bounds(what: str, d, c) -> tuple:
    """(d, c) as plain ints, refused with ShapeError unless both are ints
    (numpy ones too, but not bools) >= 1."""
    if not (_is_int(d) and _is_int(c)) or d < 1 or c < 1:
        raise ShapeError(f"{what} needs ints d >= 1, c >= 1, not "
                         f"{d!r}, {c!r}")
    return int(d), int(c)


def hall_basis(d: int, c: int) -> list:
    """All Hall trees of degree <= c on d generators, in basis order."""
    d, c = _degree_bounds("hall_basis", d, c)
    by_degree: dict = {1: list(range(d))}
    for k in range(2, c + 1):
        items = []
        for dl in range(1, k):
            dr = k - dl
            if dl > dr:
                continue
            for l in by_degree[dl]:
                kl = tree_order_key(l)
                for r in by_degree[dr]:
                    if dl == dr and not kl < tree_order_key(r):
                        continue
                    if _is_hall_pair(l, r):
                        items.append((l, r))
        items.sort(key=tree_order_key)
        expected = witt_dimension(d, k)
        if len(items) != expected:
            raise ShapeError(
                f"Hall count {len(items)} != Witt {expected} at degree {k}")
        by_degree[k] = items
    out = []
    for k in range(1, c + 1):
        out.extend(by_degree[k])
    return out


@lru_cache(maxsize=None)
def _hall_data(d: int, c: int):
    """(trees, index, degrees, children, table) with integer coefficients."""
    trees = tuple(hall_basis(d, c))
    index = {t: i for i, t in enumerate(trees)}
    degrees = tuple(tree_degree(t) for t in trees)
    children = tuple(
        None if isinstance(t, int) else (index[t[0]], index[t[1]])
        for t in trees
    )
    memo: dict = {}

    def nb(i: int, j: int) -> dict:
        """[e_i, e_j] as {k: int}, for i < j."""
        got = memo.get((i, j))
        if got is not None:
            return got
        if degrees[i] + degrees[j] > c:
            memo[(i, j)] = {}
            return {}
        ti, tj = trees[i], trees[j]
        if _is_hall_pair(ti, tj):
            out = {index[(ti, tj)]: 1}
            memo[(i, j)] = out
            return out
        a, b = children[j]  # tj = (a, b) with a > i in the tree order
        # [e_i, [a, b]] = [[e_i, a], b] - [[e_i, b], a]
        out: dict = {}
        for inner, other, sign in ((nb_signed(i, a), b, 1),
                                   (nb_signed(i, b), a, -1)):
            for t_idx, cf in inner.items():
                for k2, c2 in nb_signed(t_idx, other).items():
                    v = out.get(k2, 0) + sign * cf * c2
                    if v:
                        out[k2] = v
                    else:
                        out.pop(k2, None)
        memo[(i, j)] = out
        return out

    def nb_signed(i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return nb(i, j)
        return {k: -v for k, v in nb(j, i).items()}

    table: dict = {}
    n = len(trees)
    for i in range(n):
        for j in range(i + 1, n):
            if degrees[i] + degrees[j] > c:
                continue
            entry = nb(i, j)
            if entry:
                table[(i, j)] = entry
    return trees, index, degrees, children, table


# ======================================================================
# FreeNilpotent
# ======================================================================

@dataclass
class FreeNilpotent:
    """Free nilpotent Lie algebra F(d, c) over a field, on the Hall basis."""

    d: int
    c: int
    field: FieldSpec
    algebra: LieAlgebra
    trees: tuple
    degrees: tuple
    index: dict = dc_field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def free_nilpotent(d: int, c: int, field: FieldSpec) -> FreeNilpotent:
    d, c = _degree_bounds("free_nilpotent", d, c)
    total = free_dimension(d, c)
    if total > DEFAULT_MAX_DIM:
        raise ResourceError(
            f"F({d},{c}) has dimension {total} > guard {DEFAULT_MAX_DIM}")
    trees, index, degrees, _children, ztable = _hall_data(d, c)
    alg = LieAlgebra(field, total, ztable, name=f"F({d},{c})")
    return FreeNilpotent(d=d, c=c, field=field, algebra=alg,
                         trees=trees, degrees=degrees, index=dict(index))
