"""Exact arithmetic for the benchmark's input generation and answer checks.

Nothing here calls liecap: ranks, null spaces and Lyndon counts are computed
by plain Gaussian elimination and word enumeration, so a check that compares
them with the program's answers is a comparison between two routes.

Scalars are `Fraction` over Q (p == 0) and residues `int` in [0, p) over
GF(p).  Bracket tables are liecap-style dicts {(i, j): {k: c}} with i < j.
"""

from __future__ import annotations

from fractions import Fraction


def _canon(x, p: int):
    return Fraction(x) if p == 0 else int(x) % p


def _inv(x, p: int):
    return 1 / x if p == 0 else pow(x, -1, p)


def rref(rows, ncols: int, p: int) -> tuple:
    """(reduced nonzero rows, pivot columns) of the row space."""
    work = [[_canon(x, p) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = _inv(work[r][c], p)
        work[r] = [_canon(x * inv, p) for x in work[r]]
        for i in range(len(work)):
            q = work[i][c]
            if i != r and q != 0:
                work[i] = [_canon(a - q * b, p)
                           for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def rank(rows, ncols: int, p: int) -> int:
    return len(rref(rows, ncols, p)[1])


def nullspace(rows, ncols: int, p: int) -> list:
    """Basis of {v : row . v = 0 for every row}."""
    reduced, pivots = rref(rows, ncols, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [_canon(0, p)] * ncols
        v[fc] = _canon(1, p)
        for row, pc in zip(reduced, pivots):
            v[pc] = _canon(-row[fc], p)
        basis.append(v)
    return basis


def ad_rows(table: dict, dim: int, p: int) -> list:
    """Rows (one per (j, k)) of the map z -> ([z, e_j])_j in coordinates."""
    rows = {}
    for (i, j), entry in table.items():
        for k, c in entry.items():
            # [e_i, e_j] = c e_k contributes +c at (j, k) column i and
            # -c at (i, k) column j
            rows.setdefault((j, k), [_canon(0, p)] * dim)[i] += c
            rows.setdefault((i, k), [_canon(0, p)] * dim)[j] -= c
    return [[_canon(x, p) for x in row] for row in rows.values()]


def center_basis(table: dict, dim: int, p: int) -> list:
    return nullspace(ad_rows(table, dim, p), dim, p)


def derived_rows(table: dict, dim: int, p: int) -> list:
    """The bracket table's outputs as dense rows; they span L^2."""
    rows = []
    for entry in table.values():
        row = [_canon(0, p)] * dim
        for k, c in entry.items():
            row[k] = _canon(c, p)
        rows.append(row)
    return rows


def derived_dim(table: dict, dim: int, p: int) -> int:
    return rank(derived_rows(table, dim, p), dim, p)


def is_central(table: dict, dim: int, p: int, z) -> bool:
    return all(_canon(sum(a * b for a, b in zip(row, z)), p) == 0
               for row in ad_rows(table, dim, p))


def in_span(rows, v, ncols: int, p: int) -> bool:
    base = rank(rows, ncols, p)
    return rank(list(rows) + [v], ncols, p) == base


def lyndon_count(d: int, n: int) -> int:
    """Lyndon words of length exactly n over d letters (Duval's generation
    of all Lyndon words of length <= n, counting the length-n ones)."""
    count = 0
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == n:
            count += 1
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == d - 1:
            w.pop()
    return count
