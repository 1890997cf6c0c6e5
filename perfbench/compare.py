"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result lines as ``run.py`` appends them to
``.perfbench/results.jsonl`` (copy that file aside after measuring each
side).  For every workload, trace mode and metric it prints both sides'
median with quartiles, the run count, and the change of the medians.

It refuses (exit 2) to compare result sets whose kernel state differs --
native kernel, ABI, compiler, flags or Python -- because such a
difference moves every timing without any change to the code.  The
kernel's source hash is not part of the state: changing the kernel is
what a kernel change compares.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

KERNEL_STATE = ("native", "abi", "cc", "cflags", "python")


def load(path: str):
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    states = {
        tuple((k, r["provenance"].get(k)) for k in KERNEL_STATE) for r in records
    }
    values = defaultdict(list)
    for r in records:
        for name, metric in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(metric["value"])
    return states, values


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (base_states, base), (new_states, new) = load(argv[0]), load(argv[1])
    if len(base_states | new_states) != 1:
        print("refusing to compare: kernel state differs:", file=sys.stderr)
        for state in sorted(base_states | new_states):
            print(f"  {dict(state)}", file=sys.stderr)
        return 2
    print(f"{'workload':22} {'metric':34} {'runs':>5} {'base q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8}")
    for key in sorted(set(base) & set(new)):
        workload, _, name = key
        b, c = _quartiles(base[key]), _quartiles(new[key])
        delta = f"{(c[1] - b[1]) / b[1]:+.1%}" if b[1] else "n/a"
        print(
            f"{workload:22} {name:34} {len(base[key]):>2}/{len(new[key]):<2} "
            f"{'/'.join(f'{v:.4g}' for v in b):>30} "
            f"{'/'.join(f'{v:.4g}' for v in c):>30} {delta:>8}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
