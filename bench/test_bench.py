"""Each workload's checker must count a wrong answer as a failed operation.

    python3 -m pytest bench/test_bench.py -q

For every workload a few real operations run through worker.run_round with
one answer deliberately corrupted; that operation must come back failed, and
run.summarize must count it as failed and the run as incorrect.
"""

import copy
import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

lc, _ = worker.import_liecap()


def _catalog_ops(seed):
    ops = [op for op in WORKLOADS["catalog_sums"].inputs(seed, lc)
           if op.info["base"] in ("GF(2)/H(1)", "GF(3)/A(3)", "Q/L5_8")]
    return sorted(ops, key=lambda op: op.id)


def _free_ops(seed):
    f = lc.GF2
    return [Op(f"{f}/F({d},{c})", lc.free_nilpotent(d, c, f).algebra,
               {"d": d, "c": c}) for d, c in ((2, 3), (3, 2))]


def _dim7_ops(seed):
    return WORKLOADS["dim7_sweep"].inputs(seed, lc)[::150]


def _central_ops(seed):
    return [op for op in WORKLOADS["central_bound"].inputs(seed, lc)
            if op.info["base"] in ("GF(2)/H(1)", "Q/L27B")]


def _wrong_dim_m(ans):
    ans["dim_M"] += 1


def _wrong_capable(ans):
    ans["capable"] = not ans["capable"]


def _wrong_lhs(ans):
    ans["lhs"] = ans["rhs"] - 1


def _wrong_contained(ans):
    ans["contained"] = not ans["contained"]


CASES = [
    ("catalog_sums", _catalog_ops, _wrong_dim_m),
    ("catalog_sums", _catalog_ops, _wrong_capable),
    ("free_algebras", _free_ops, _wrong_dim_m),
    ("free_algebras", _free_ops, _wrong_capable),
    ("dim7_sweep", _dim7_ops, _wrong_dim_m),
    ("dim7_sweep", _dim7_ops, _wrong_capable),
    ("central_bound", _central_ops, _wrong_lhs),
    ("central_bound", _central_ops, _wrong_contained),
]


def _round(name, make_ops, corrupt=None, bad_index=0):
    real = WORKLOADS[name]
    ops = make_ops(7)
    target = ops[bad_index].id

    def run_op(op, lc_):
        ans = real.run(op, lc_)
        if corrupt is not None and op.id == target:
            ans = copy.deepcopy(ans)
            corrupt(ans)
        return ans

    wl = dataclasses.replace(real, inputs=lambda seed, lc_: ops, run=run_op)
    return worker.run_round(lc, wl, 7), target


@pytest.mark.parametrize("name,make_ops", sorted(
    {(n, m) for n, m, _ in CASES}, key=lambda c: c[0]))
def test_correct_answers_pass(name, make_ops):
    rnd, _ = _round(name, make_ops)
    assert [op["failed"] for op in rnd["ops"]] == [[]] * len(rnd["ops"])


@pytest.mark.parametrize("name,make_ops,corrupt", CASES,
                         ids=[f"{n}-{c.__name__}" for n, _, c in CASES])
def test_wrong_answer_counts_as_failed(name, make_ops, corrupt):
    rnd, target = _round(name, make_ops, corrupt, bad_index=1)
    failed = [op["id"] for op in rnd["ops"] if op["failed"]]
    assert target in failed
    result, problems = run.summarize([rnd], [], [0.1], trace=False)
    assert result["failed"] >= 1
    assert not result["correct"] and problems


@pytest.mark.parametrize("coord,message", [(0, "not central"),
                                           (7, "not inside L^2")])
def test_exterior_center_outside_center_or_derived_fails(coord, message):
    """L27B + A(1) is not capable; replace a vector of its exterior center
    by e_0 (not central) or by the A(1) direction (central, not in L^2)."""
    wl = WORKLOADS["catalog_sums"]
    ops = [op for op in wl.inputs(7, lc)
           if op.info["base"] == "Q/L27B" and op.info["k"] in (0, 1)]
    ops.sort(key=lambda op: op.info["k"])
    answers = [wl.run(op, lc) for op in ops]
    assert wl.check(ops, answers) == [[], []]
    answers[1]["zc"][0] = [int(i == coord) for i in range(8)]
    assert any(message in msg for msg in wl.check(ops, answers)[1])


def test_raising_operation_is_failed_but_not_wrong():
    real = WORKLOADS["dim7_sweep"]
    ops = _dim7_ops(3)

    def run_op(op, lc_):
        if op is ops[0]:
            raise lc.ScopeError("deliberate")
        return real.run(op, lc_)

    wl = dataclasses.replace(real, inputs=lambda seed, lc_: ops, run=run_op)
    rnd = worker.run_round(lc, wl, 3)
    result, _ = run.summarize([rnd], [], [0.1], trace=False)
    assert result["failed"] == 1 and result["correct"]
    assert result["attempted"] == len(ops)


def test_sampler_rates_use_ticks_near_each_span():
    import pace
    s = pace.Sampler()
    s.samples = [(0.5, 10, 0.01), (5.0, 30, 0.01)]  # 1000/s, then 3000/s
    rates = s.rates([(0.0, 1.0), (2.2, 2.3), (4.5, 4.6)], window=1.0)
    # the second span has no tick within 1 s: it gets the rate of every tick
    assert rates == pytest.approx([1000.0, 2000.0, 3000.0])
