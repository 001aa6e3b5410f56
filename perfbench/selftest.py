"""Self-test: a spoiled output must show up as a failed op.

    python3 perfbench/selftest.py

Runs the decompose and cli workloads with ``--corrupt``, which changes
one Taylor coefficient of the first z^n component (decompose_zn, and
``hardy decompose --mode zn``'s output file) in every round, and
confirms that each run reports exactly one failed op per round and
``correct: false``.  Exits 0 when both runs do.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.realpath(__file__)), "run.py")
# ops per round, for the attempted -> rounds conversion
ROUND_SIZE = {"decompose": 100, "cli": 9}


def main():
    ok = True
    for workload, size in ROUND_SIZE.items():
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "1",
             "--seconds", "0", "--corrupt"],
            capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rounds = result["attempted"] // size
        good = (result["correct"] is False and rounds >= 1
                and result["failed"] == rounds)
        ok = ok and good
        print(f"{workload}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']} -> "
              f"{'ok' if good else 'NOT DETECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
