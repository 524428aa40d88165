"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the standard output of untraced runs of perfbench/run.py,
appended one after another (a record line followed by a result line per
run).  Runs are paired in file order within each workload; alternate
which side runs first.  For every end-to-end metric of BENCHMARK.json and
every workload the verdict is:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  improved    the change wins at least 9/10 of at least 10 pairs (ties
              count for neither), its median beats the parent's by more
              than the parent's interquartile range, and it fails no more
              jobs than the parent
  unresolved  such a gain over fewer than 10 pairs; or the spread
              (interquartile range over median) of either side exceeds
              the bound, unless every change run beats every parent run
  unchanged   otherwise

Exit status 1 when any pair is worse or the change fails more jobs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced results by workload, each with the record printed before it."""
    runs: dict[str, list[dict]] = {}
    record = None
    for line in path.read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "workload" in obj:
            record = obj
        elif "metrics" in obj and record is not None and not record["trace"]:
            runs.setdefault(record["workload"], []).append(
                {"started": record["env"]["started_utc"], **obj})
            record = None
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """Interquartile range and the same as a share of the median."""
    if len(values) < 2:
        return float("inf"), float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, (q3 - q1) / med


def verdict(a: list[float], b: list[float], bound: float, lower_better: bool,
            more_failures: bool) -> tuple[str, int, int]:
    sign = 1 if lower_better else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    iqr_a, rel_a = spread(a)
    _, rel_b = spread(b)
    if sign * (med_b - med_a) > bound * med_a:
        return "worse", wins, len(pairs)
    if (wins >= 0.9 * len(pairs) and not more_failures
            and sign * (med_a - med_b) > iqr_a):
        # a gain needs at least ten pairs to be claimed
        return ("improved" if len(pairs) >= 10 else "unresolved"), wins, len(pairs)
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if max(rel_a, rel_b) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = (load_runs(Path(p)) for p in sys.argv[1:3])
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    bad = False
    print(f"{'workload':8} {'metric':12} {'parent median [q1,q3]':>28} "
          f"{'change median [q1,q3]':>28} {'diff':>7} {'wins':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:8} missing on one side")
            bad = True
            continue
        a_failed = sum(r["failed"] + (not r["correct"]) for r in a_runs)
        b_failed = sum(r["failed"] + (not r["correct"]) for r in b_runs)
        more_failures = b_failed > a_failed
        bad |= more_failures
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            v, wins, n = verdict(a, b, m["bound"], m["better"] == "lower", more_failures)
            bad |= v == "worse"
            diff = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            print(f"{workload:8} {m['name']:12} {_summary(a):>28} {_summary(b):>28} "
                  f"{diff:+7.1%} {wins:>3}/{n:<2}  {v}")
        first = sum(x["started"] <= y["started"] for x, y in zip(a_runs, b_runs))
        print(f"{workload:8} failed jobs: parent {a_failed}, change {b_failed}; "
              f"parent ran first in {first} of {min(len(a_runs), len(b_runs))} pairs")
    return 1 if bad else 0


def _summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g},{q3:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
