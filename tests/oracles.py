"""Independent brute-force oracles shared by the test modules.

Everything here is computed by a different route than the package uses, so
agreement is meaningful evidence rather than a tautology.
"""

import itertools
from fractions import Fraction

from liecap.linalg import Matrix, kernel, reduce_rows, span


def lyndon_count(d: int, k: int) -> int:
    """Number of Lyndon words of length k over a d-letter alphabet, by direct
    enumeration: a word is Lyndon iff it is strictly smaller than every
    proper rotation.  This equals the degree-k dimension of the free Lie
    algebra on d generators."""
    count = 0
    for w in itertools.product(range(d), repeat=k):
        if all(w < w[i:] + w[:i] for i in range(1, k)):
            count += 1
    return count


def brute_force_multiplier_dim_abelian(n: int) -> int:
    """dim of the degree-2 component of the free Lie algebra on n
    generators, counted as unordered index pairs: the multiplier of the
    n-dimensional abelian algebra."""
    return n * (n - 1) // 2


def jacobi_violations_all_triples(L):
    """Every basis triple i < j < k, in increasing order, at which
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] is nonzero, from
    dense brackets over all C(n,3) triples."""
    f = L.field
    e = [L.basis_vector(i) for i in range(L.dim)]
    out = []
    for i, j, k in itertools.combinations(range(L.dim), 3):
        terms = (L.bracket(e[i], L.bracket(e[j], e[k])),
                 L.bracket(e[j], L.bracket(e[k], e[i])),
                 L.bracket(e[k], L.bracket(e[i], e[j])))
        if any(f.add(f.add(x, y), z) != 0 for x, y, z in zip(*terms)):
            out.append((i, j, k))
    return tuple(out)


def bracket_subspaces_all_pairs(L, a, b):
    """span{[x, y]} over every pair of basis rows x of a, y of b, by dense
    brackets."""
    return span(L.field, L.dim, [L.bracket(x, y)
                                 for x in a.basis for y in b.basis])


def commutator_full_route(F, R):
    """[R, F] spanned over the full Hall basis, not just the generators."""
    return F.algebra.bracket_subspaces(R, F.algebra.full_space())


def exterior_center_all_pairs(pres):
    """The exterior center from the definition: z with [s(z), s(e_j)] in
    [R, F] for the lift of every basis vector e_j of L, by n^2 dense cover
    brackets."""
    L, F = pres.L, pres.F
    n, alg = L.dim, F.algebra
    lifts = [tuple(pres.section.rows[r][k] for r in range(F.dim))
             for k in range(n)]
    residuals = reduce_rows(pres.RF, [alg.bracket(a, b)
                                      for a in lifts for b in lifts])
    rows = [[residuals[t * n + j][c] for t in range(n)]
            for j in range(n) for c in range(F.dim)]
    rows = [row for row in rows if any(x != 0 for x in row)]
    if not rows:
        return L.full_space()
    return kernel(Matrix.from_rows(L.field, rows, ncols=n))
