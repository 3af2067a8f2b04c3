"""Census of the class-2 stems of dimension 7 with dim L^2 = 2 over GF(2).

Every 2-dim space of alternating forms on GF(2)^5 (`oracles.pencils`) is
built as an algebra, and those with no common radical (center of
dimension 2) are the stems of dimension 7.  For each stem the verdict of
`capability_structural` is compared with `is_capable`, each computed on
its own fresh copy of the algebra, and the process time of each route is
summed.  Exits 1 unless there are 156,240 stems, 104,160 of them capable,
and no disagreement.

    PYTHONPATH=src python tests/pencil_census.py
"""

import sys
import time

from liecap import GF2, LieAlgebra, capability_structural, is_capable

from oracles import pencils

STEMS, CAPABLE = 156_240, 104_160


def main() -> int:
    stems = capable = mismatches = 0
    rule_s = truth_s = 0.0
    clock = time.process_time
    for L in pencils(GF2, 5):
        if L.center().dim != 2:
            continue
        stems += 1
        a, b = (LieAlgebra(GF2, L.dim, L.table) for _ in range(2))
        t0 = clock()
        verdict = capability_structural(a).capable
        t1 = clock()
        truth = is_capable(b)
        t2 = clock()
        rule_s += t1 - t0
        truth_s += t2 - t1
        capable += truth
        mismatches += verdict != truth
    print(f"stems {stems} (want {STEMS}), capable {capable} "
          f"(want {CAPABLE}), mismatches {mismatches}")
    print(f"process time: capability_structural {rule_s:.1f} s, "
          f"is_capable {truth_s:.1f} s")
    return 0 if (stems, capable, mismatches) == (STEMS, CAPABLE, 0) else 1


if __name__ == "__main__":
    sys.exit(main())
