"""One round of one workload, in the fresh interpreter run.py starts for it.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--spans PATH]
    python3 bench/worker.py --import-only

Prints one JSON object: the import time of liecap, the round's wall time,
each operation's id, latency, answers and failed checks, the peak resident
memory, and with --trace the per-layer metrics.  Only the operations are
timed: inputs are built before the clock starts and checked after it stops.

While the operations run, a `pace.Sampler` probes the host's speed for 10 ms
every 0.1 s, and every time is read from its clock, which leaves the probes
out.  Each latency is reported raw (`latency_raw_s`) and in ref-seconds
(`latency_s`): scaled by the rate of the probes within RATE_WINDOW_S of it,
over `pace.REF_UNITS_PER_S`.  The round's `wall_s` is the sum of the
ref-second latencies; `wall_raw_s` is the sum of the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

RATE_WINDOW_S = 1.0
SETUP_PROBE_S = 0.15


def import_liecap():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import liecap
    return liecap, time.perf_counter() - t0


def run_round(lc, workload, seed: int, tracer=None) -> dict:
    import pace
    ops = workload.inputs(seed, lc)
    # One fixed order for every seed and run, mixing fields and sizes: when
    # the machine's speed drifts during a round, every cluster of latencies
    # moves alike.
    random.Random("op-order").shuffle(ops)
    sampler = pace.Sampler()
    clock = sampler.clock
    if tracer is not None:
        tracer.clock = clock
        tracer.install()
    answers, latencies, spans = [], [], []
    with sampler:
        for op in ops:
            t0 = clock()
            try:
                if tracer is None:
                    ans = workload.run(op, lc)
                else:
                    with tracer.op(op.id):
                        ans = workload.run(op, lc)
            except Exception as exc:  # counted as a failed operation
                ans = None
                print(f"{op.id}: {exc!r}", file=sys.stderr)
            t1 = clock()
            latencies.append(t1 - t0)
            spans.append((t0, t1))
            answers.append(ans)
    if tracer is not None:
        tracer.uninstall()
    failures = workload.check(ops, answers)
    rates = sampler.rates(spans, RATE_WINDOW_S)
    ref = [lat * rate / pace.REF_UNITS_PER_S
           for lat, rate in zip(latencies, rates)]
    ticks = sampler.samples
    return {
        "wall_s": sum(ref),
        "wall_raw_s": sum(latencies),
        "host_rate": (sum(n for _, n, _ in ticks)
                      / sum(e for _, _, e in ticks)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
        "ops": [{"id": op.id, "latency_s": r, "latency_raw_s": lat,
                 "answers": ans, "failed": bad}
                for op, r, lat, ans, bad in zip(ops, ref, latencies, answers,
                                                failures)],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced round's spans here")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    lc, import_s = import_liecap()
    out = {"import_s": import_s}
    if args.import_only:
        import pace  # after liecap: it imports fractions, which liecap loads
        out["probe"] = pace.probe(SETUP_PROBE_S)
    else:
        from workloads import WORKLOADS
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(lc)
        out.update(run_round(lc, WORKLOADS[args.workload], args.seed, tracer))
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
