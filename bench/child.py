"""Run one workload once in a fresh process; print its peak RSS and check.

    python3 bench/child.py WORKLOAD SEED WORKDIR

Prints one JSON line: {"maxrss_kb": ..., "failures": [...]}.  The peak is
read before the check runs, so it covers only the import and the workload.
"""

import json
import resource
import sys
from pathlib import Path

from workloads import WORKLOADS, load_pme


def main(name: str, seed: str, workdir: str) -> int:
    pme = load_pme()
    workload = WORKLOADS[name]
    inputs = workload.prepare(int(seed), Path(workdir))
    result = workload.run(pme, inputs)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcome = workload.check(inputs, result)
    print(json.dumps({"maxrss_kb": maxrss_kb, "failures": outcome.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
