"""Benchmark for liecap: cold-process workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every round of a workload runs in a fresh interpreter (bench/worker.py), so
the lru caches of catalog.build, freelie.free_nilpotent and _hall_data, and
each algebra's `_cache`, start empty, as they do for a CLI call or a new
sweep.  Rounds run one after another, each operation after the previous one
(a closed loop with one client and no threads).  A run starts rounds until
the next one would end after S seconds, and always runs at least one.

Times are in ref-seconds (bench/pace.py): each is scaled by the host's
speed, probed around it with a fixed piece of Python work, so that the
drift of a shared host does not read as a change in liecap.  The raw times
are printed and recorded too.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 every
round is run twice, untraced and then with bench/tracer.py installed; the run
reports the per-layer metrics of the traced rounds and `trace.overhead_s`,
their wall time minus the untraced wall time.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A record
with the answers, the machine and the git commit goes to bench/results/.

Exit status: 0 when every answer passed its checks, 1 when a check failed or
a round did not finish, 2 when the liecap sources are not next to bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 7
ROUND_TIMEOUT_S = 170
P95_MIN_OPS = 200

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_iqm_s": "s",
                    "peak_rss_mb": "MB"}


sys.path.insert(0, HERE)
import pace  # noqa: E402  (stdlib only, no liecap)
from tracer import LAYER_UNITS  # noqa: E402
from worker import SETUP_PROBE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RoundError(RuntimeError):
    pass


def spawn(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"worker {' '.join(args)} exceeded "
                         f"{ROUND_TIMEOUT_S}s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RoundError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times() -> tuple:
    """Import time of liecap in SETUP_PROBES fresh interpreters, after one
    unmeasured import that leaves the bytecode cache written: (ref-seconds,
    raw seconds).  The host's speed for each import is probed here just
    before the interpreter starts and in it just after the import."""
    spawn("--import-only")
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        n0, e0 = pace.probe(SETUP_PROBE_S)
        out = spawn("--import-only")
        n1, e1 = out["probe"]
        rate = (n0 + n1) / (e0 + e1)
        raw.append(out["import_s"])
        ref.append(out["import_s"] * rate / pace.REF_UNITS_PER_S)
    return ref, raw


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload for about `seconds`; returns (result, record)."""
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"{name}-seed{seed}-spans.jsonl.gz")
    setup, setup_raw = setup_times()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(spawn("--workload", name, "--seed", str(seed)))
        if trace:
            traced.append(spawn("--workload", name, "--seed", str(seed),
                                "--trace", "--spans", spans))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break

    result, problems = summarize(plain, traced, setup, trace)
    latencies = [op["latency_s"] for r in plain for op in r["ops"]]
    p95 = (statistics.quantiles(latencies, n=20)[-1]
           if len(latencies) >= P95_MIN_OPS else None)
    first = {op["id"]: op["answers"] for op in plain[0]["ops"]}
    answers = json.dumps(sorted(first.items()), sort_keys=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result,
        "op_p95_s": p95, "ops_timed": len(latencies),
        "round_walls_s": [r["wall_s"] for r in plain],
        "round_walls_raw_s": [r["wall_raw_s"] for r in plain],
        "host_rates": [r["host_rate"] for r in plain],
        "traced_walls_s": [r["wall_s"] for r in traced],
        "setup_samples_s": setup,
        "setup_samples_raw_s": setup_raw,
        "problems": problems,
        "answers_sha256": hashlib.sha256(answers.encode()).hexdigest(),
        "answers": first,
        "op_latencies_s": [{op["id"]: [op["latency_s"], op["latency_raw_s"]]
                            for op in r["ops"]} for r in plain],
        "machine": {
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": plain[0]["numpy"],
            "platform": platform.platform(),
        },
    }
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, record


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the sorted values.

    Operation latencies fall in clusters (field, size of the cover), and the
    median of a workload can sit in the gap between two of them, where it
    jumps from one cluster to the other on small timing noise.  The mean of
    the middle half moves smoothly, and no single slow operation moves it.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def summarize(plain: list, traced: list, setup: list, trace: bool) -> tuple:
    """(result, problems) from the rounds of one run.

    An operation that raised or failed a check is failed; one that answered
    and failed a check also makes the run incorrect, as do answers that
    differ between rounds of the same inputs.
    """
    rounds = plain + traced
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if op["failed"])
    problems = [f"{op['id']}: {'; '.join(op['failed'])}"
                for r in rounds for op in r["ops"]
                if op["failed"] and op["answers"] is not None]
    first = {op["id"]: op["answers"] for op in rounds[0]["ops"]}
    for r in rounds[1:]:
        if {op["id"]: op["answers"] for op in r["ops"]} != first:
            problems.append("answers differ between rounds of one run")

    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in LAYER_UNITS}
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced) - wall
        units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "op_iqm_s": iqm(
                [op["latency_s"] for r in plain for op in r["ops"]]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, problems


def report(name: str, result: dict, record: dict) -> None:
    print(f"workload {name}  seed {record['seed']}  "
          f"rounds {len(record['round_walls_s'])}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        digits = 0 if m["unit"] == "count" else 6
        print(f"  {key:28s} {m['value']:16.{digits}f} {m['unit']}")
    if record["op_p95_s"] is not None and not record["trace"]:
        print(f"  {'op_p95_s (not gated)':28s} {record['op_p95_s']:16.6f} s"
              f"  ({record['ops_timed']} operations)")
    speed = statistics.median(record["host_rates"]) / pace.REF_UNITS_PER_S
    print(f"  {'wall_raw_s (not gated)':28s} "
          f"{statistics.median(record['round_walls_raw_s']):16.6f} s"
          f"  (host at {speed:.2f} of the reference speed)")
    for line in record["problems"][:10]:
        print(f"  FAILED {line}")
    print(f"  answers sha256 {record['answers_sha256'][:16]}  "
          f"git {record['machine']['git_sha'][:12]}  "
          f"nproc {record['machine']['nproc']}  "
          f"python {record['machine']['python']}  "
          f"numpy {record['machine']['numpy']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "liecap", "__init__.py")):
        print(f"error: no liecap sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
        except RoundError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, result, record)
        print(json.dumps(result))
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
