"""Summarise one set of benchmark runs, or compare two sets.

    python3 perfbench/compare.py perfbench/results-a [perfbench/results-b]

Each directory holds the records run.py writes to perfbench/results/.
For every workload and metric this prints the median over the set's runs
and the spread (distance between the first and third quartile as a
share of the median).  With two sets it also prints how far the second
median moved from the first, marks end-to-end metrics that moved the
wrong way by more than the bound in BENCHMARK.json, and lists the
per-layer counts that differ between runs of the same seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
DECLARED = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(directory: str) -> dict:
    """(workload, trace) -> metric -> {seed: value}, plus failure tallies."""
    sets: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        tally = sets[key].setdefault("(failed/attempted)", {})
        tally[record["seed"]] = (record["failed"], record["attempted"])
        for name, metric in record["metrics"].items():
            sets[key][name][record["seed"]] = metric["value"]
    return sets


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str]) -> int:
    sets = [load(d) for d in argv]
    worse = 0
    for key in sorted(set().union(*sets)):
        print(f"{key[0]} trace {key[1]}")
        for name in sorted(set().union(*(s.get(key, {}) for s in sets)) - {"(failed/attempted)"}):
            declared = DECLARED.get(name, {})
            cells = []
            medians = []
            for s in sets:
                values = list(s.get(key, {}).get(name, {}).values())
                if not values:
                    cells.append(f"{'-':>28}")
                    continue
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:>14.6g} spread {spread(values):6.3f}")
            line = f"  {name:32s}" + "".join(cells)
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                line += f"  change {change:+.3f}"
                bound = declared.get("bound")
                sign = 1 if declared.get("better") == "lower" else -1
                if bound is not None and sign * change > bound:
                    line += f"  WORSE than bound {bound}"
                    worse += 1
                if declared.get("unit") == "count":
                    a, b = (s[key][name] for s in sets)
                    differ = sorted(seed for seed in a.keys() & b.keys() if a[seed] != b[seed])
                    if differ:
                        line += f"  differs on seeds {differ}"
            print(line)
        for s in sets:
            tallies = s.get(key, {}).get("(failed/attempted)", {})
            failed = sum(f for f, _ in tallies.values())
            attempted = sum(a for _, a in tallies.values())
            print(f"  failed {failed} of {attempted} operations over {len(tallies)} runs")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
