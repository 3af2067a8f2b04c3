"""The benchmark's four workloads: inputs from a seed, one operation, checks.

Each workload is three functions over the imported `liecap` package `lc`:

* `inputs(seed, lc)` builds the round's operations.  The same seed gives the
  same operations in the same order; a round is always the whole list.
  catalog_sums and free_algebras have fixed inputs and ignore the seed.
* `run(op, lc)` performs one operation and returns its answers.  It is the
  only part that is timed.
* `check(ops, answers)` returns, per operation, the list of failed checks
  (empty when the operation passed).  An answer of `None` stands for an
  operation that raised.  The checks compare with `oracle`, which does not
  call liecap, or with properties every correct answer must have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import oracle


@dataclass
class Op:
    id: str
    alg: object  # the liecap.LieAlgebra the program receives, if built
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable
    run: Callable
    check: Callable


def _field(lc, name: str):
    return {"Q": lc.QQ, "GF(2)": lc.GF2, "GF(3)": lc.GF3, "GF(5)": lc.GF5}[name]


def _missing(answer) -> list:
    return ["operation raised"] if answer is None else []


def _basis(sub) -> list:
    return [list(row) for row in sub.basis]


# ======================================================================
# catalog_sums
# ======================================================================

CATALOG_FIELDS = ("Q", "GF(2)", "GF(3)", "GF(5)")
CATALOG_MAX_K = 2
HEISENBERG_MULTIPLIER = {"H(1)": 2, "H(2)": 5, "H(3)": 14}


def catalog_inputs(seed: int, lc) -> list:
    """Every standard instance with dim L^2 <= 2, plus A(k) for
    k = 0..CATALOG_MAX_K, over each field.  The inputs are fixed: the seed
    is not used, so every run times the same work."""
    ops = []
    for fname in CATALOG_FIELDS:
        f = _field(lc, fname)
        p = f.characteristic
        for L in lc.standard_instances(f):
            der = oracle.derived_dim(L.table, L.dim, p)
            if der > 2:
                continue
            for k in range(CATALOG_MAX_K + 1):
                alg = L if k == 0 else lc.direct_sum(L, lc.abelian(f, k))
                ops.append(Op(f"{f}/{L.name}+A({k})", alg, {
                    "p": p, "base": f"{f}/{L.name}", "name": L.name,
                    "k": k, "dim": L.dim, "der": der}))
    return ops


def catalog_run(op: Op, lc) -> dict:
    hom = lc.homology(op.alg)
    verdict = lc.capability_structural(op.alg)
    return {"dim_M": hom.dim_M, "dim_ext": hom.dim_exterior_square,
            "capable": hom.capable, "structural": verdict.capable,
            "zc": _basis(hom.exterior_center)}


def catalog_check(ops: list, answers: list) -> list:
    base_m = {op.info["base"]: a["dim_M"] for op, a in zip(ops, answers)
              if a is not None and op.info["k"] == 0}
    out = []
    for op, a in zip(ops, answers):
        bad = _missing(a)
        if bad:
            out.append(bad)
            continue
        i = op.info
        p, k, der = i["p"], i["k"], i["der"]
        n = i["dim"] + k
        if a["structural"] != a["capable"]:
            bad.append("structural verdict differs from the exterior center")
        if a["capable"] != (not a["zc"]):
            bad.append("capable disagrees with the exterior center")
        if i["name"] == "A(3)" and a["dim_M"] != comb(n, 2):
            bad.append(f"dim M(A({n})) = {a['dim_M']} != {comb(n, 2)}")
        if k == 0 and a["dim_M"] != HEISENBERG_MULTIPLIER.get(
                i["name"], a["dim_M"]):
            bad.append(f"dim M({i['name']}) = {a['dim_M']}")
        m0 = base_m.get(i["base"])
        if m0 is None:
            bad.append("no k = 0 answer to check Kunneth against")
        elif a["dim_M"] != m0 + k * (i["dim"] - der) + comb(k, 2):
            bad.append(f"Kunneth: dim M = {a['dim_M']}, base {m0}")
        if a["dim_ext"] != a["dim_M"] + der:
            bad.append("dim L^L != dim M + dim L^2")
        table = op.alg.table
        der_rows = oracle.derived_rows(table, n, p)
        for z in a["zc"]:
            if not oracle.is_central(table, n, p, z):
                bad.append("exterior center not central")
                break
            if not oracle.in_span(der_rows, z, n, p):
                bad.append("exterior center not inside L^2")
                break
        out.append(bad)
    return out


# ======================================================================
# free_algebras
# ======================================================================

FREE_CASES = ((7, 3, "GF(2)"), (5, 3, "Q"), (4, 4, "GF(3)"), (3, 5, "Q"))


def free_inputs(seed: int, lc) -> list:
    """F(d, c) over a field, built before timing.  Fixed; the seed is not
    used."""
    ops = []
    for d, c, fname in FREE_CASES:
        f = _field(lc, fname)
        alg = lc.free_nilpotent(d, c, f).algebra
        ops.append(Op(f"{f}/F({d},{c})", alg, {"d": d, "c": c}))
    return ops


def free_run(op: Op, lc) -> dict:
    hom = lc.homology(op.alg)
    return {"dim_M": hom.dim_M, "dim_ext": hom.dim_exterior_square,
            "capable": hom.capable, "dim_zc": hom.exterior_center.dim}


def free_check(ops: list, answers: list) -> list:
    out = []
    for op, a in zip(ops, answers):
        bad = _missing(a)
        if not bad:
            d, c = op.info["d"], op.info["c"]
            want_m = oracle.lyndon_count(d, c + 1)
            dim_f2 = sum(oracle.lyndon_count(d, k) for k in range(2, c + 1))
            if a["dim_M"] != want_m:
                bad.append(f"dim M = {a['dim_M']} != {want_m} Lyndon words")
            if not a["capable"] or a["dim_zc"]:
                bad.append("free nilpotent algebra reported not capable")
            if a["dim_ext"] != a["dim_M"] + dim_f2:
                bad.append("dim L^L != dim M + dim F^2")
        out.append(bad)
    return out


# ======================================================================
# dim7_sweep
# ======================================================================

DIM7_FIELDS = ("GF(2)", "GF(3)", "GF(5)")
DIM7_SAMPLES = 200
DIM7_PROFILES = ((9, True), (10, False))


def dim7_inputs(seed: int, lc) -> list:
    """Sampler seeds for DIM7_SAMPLES dim-7 rank-2 algebras per field; the
    sampler itself runs inside the timed operation."""
    ops = []
    for fname in DIM7_FIELDS:
        f = _field(lc, fname)
        rng = random.Random(f"dim7_sweep/{seed}/{f}")
        for _ in range(DIM7_SAMPLES):
            s = rng.randrange(2**31)
            ops.append(Op(f"{f}/genH(seed={s})", None,
                          {"field": f, "seed": s}))
    return ops


def dim7_run(op: Op, lc) -> dict:
    L = lc.random_gen_heisenberg(7, 2, op.info["field"], seed=op.info["seed"])
    hom = lc.homology(L)
    return {"dim_M": hom.dim_M, "dim_ext": hom.dim_exterior_square,
            "capable": hom.capable}


def dim7_check(ops: list, answers: list) -> list:
    out = []
    for a in answers:
        bad = _missing(a)
        if not bad:
            if (a["dim_M"], a["capable"]) not in DIM7_PROFILES:
                bad.append(f"profile ({a['dim_M']}, {a['capable']})")
            if a["dim_ext"] != a["dim_M"] + 2:
                bad.append("dim L^L != dim M + 2")
        out.append(bad)
    return out


# ======================================================================
# central_bound
# ======================================================================

CENTRAL_FIELDS = ("Q", "GF(2)")
CENTRAL_RANDOM_LINES = 20


def central_inputs(seed: int, lc) -> list:
    """Each standard instance with the lines through its center basis
    (computed by `oracle`) and CENTRAL_RANDOM_LINES random central lines."""
    ops = []
    for fname in CENTRAL_FIELDS:
        f = _field(lc, fname)
        p = f.characteristic
        for idx, L in enumerate(lc.standard_instances(f)):
            z = oracle.center_basis(L.table, L.dim, p)
            vecs = list(z)
            rng = random.Random(f"central_bound/{seed}/{f}/{idx}")
            for _ in range(CENTRAL_RANDOM_LINES):
                for _attempt in range(20):
                    coeffs = [f.random_scalar(rng) for _ in z]
                    vec = [sum((c * row[i] for c, row in zip(coeffs, z)),
                               f.zero) for i in range(L.dim)]
                    vec = [f.coerce(x) for x in vec]
                    if any(x != f.zero for x in vec):
                        vecs.append(vec)
                        break
            for j, vec in enumerate(vecs):
                ops.append(Op(f"{f}/{L.name}/line{j}", L, {
                    "base": f"{f}/{L.name}",
                    "line": lc.span(f, L.dim, [vec])}))
    return ops


def central_run(op: Op, lc) -> dict:
    dd = lc.epicenter_test_dd(op.alg, op.info["line"])
    return {"lhs": dd.lhs, "rhs": dd.rhs, "contained": dd.contained}


def central_check(ops: list, answers: list) -> list:
    lhs_seen: dict = {}
    for op, a in zip(ops, answers):
        if a is not None:
            lhs_seen.setdefault(op.info["base"], set()).add(a["lhs"])
    out = []
    for op, a in zip(ops, answers):
        bad = _missing(a)
        if not bad:
            if a["lhs"] < a["rhs"]:
                bad.append(f"bound fails: lhs {a['lhs']} < rhs {a['rhs']}")
            if (a["lhs"] == a["rhs"]) != a["contained"]:
                bad.append("equality does not match containment in Z^")
            if len(lhs_seen[op.info["base"]]) != 1:
                bad.append("dim M(L) differs between lines of one algebra")
        out.append(bad)
    return out


WORKLOADS = {w.name: w for w in (
    Workload("catalog_sums",
             "catalog sums L+A(k) over Q and GF(p): presentation stages "
             "with many generators",
             catalog_inputs, catalog_run, catalog_check),
    Workload("free_algebras",
             "free nilpotent algebras: tiny R, large Hall basis, "
             "exterior-center bracket loop",
             free_inputs, free_run, free_check),
    Workload("dim7_sweep",
             "many fresh small random dim-7 algebras on the numpy GF(p) "
             "path: per-call overhead",
             dim7_inputs, dim7_run, dim7_check),
    Workload("central_bound",
             "central-line quotients that repeat: multiplier only, where a "
             "content-keyed cache would show",
             central_inputs, central_run, central_check),
)}
