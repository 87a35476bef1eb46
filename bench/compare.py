"""Compare benchmark runs of a parent commit and a change.

Usage (from the repository root)::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--json`` reports of repeated runs made with
identical benchmark code and settings, one report per run.  Runs pair up in
file-name order, so name them so that pair ``i`` used the same ``--seed``
on both sides, and alternate which side ran first.  For every (workload,
metric) the script prints each side's median and quartiles, the share of
pairs the change won (ties count for neither) and a verdict:

``improved``
    over at least ten pairs, the change won at least 9 pairs in 10 and the
    medians differ by more than the parent's spread (distance between its
    quartiles);
``regressed``
    the change's median is worse than the parent's by more than the
    metric's ``bound`` in ``BENCHMARK.json``;
``unresolved``
    the parent's spread is wider than the bound and not every change run
    beats every parent run;
``no worse``
    none of the above.

Per-layer metrics have no bound: they read ``improved``, ``worse`` (the
mirror of the improvement rule) or ``within noise``.  Counts and bytes
repeat exactly on one commit, so they are compared pair by pair: ``same``,
or ``improved``/``worse``/``mixed`` by their direction.  The answer digests
and the counts the inputs fix (jobs generated, admissions, batches sent)
must be equal.  The exit status is 1 when a metric regressed or a digest or
input count differs, and 2 when the two sides' runs used different settings
(``--scale``, ``--trace``, ``--seconds``, or a pair's ``--seed``).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "bytes")
#: Counts fixed by the inputs and the load generator: any change is an error.
INPUT_COUNTS = ("traces.jobs", "service.admits", "loadgen.batches")
#: Run settings every report on both sides must share.
SETTINGS = ("scale", "trace", "seconds")
#: Fewest pairs a gain (or a per-layer "worse") may rest on.
MIN_PAIRS = 10


def load_runs(directory) -> list[dict]:
    paths = sorted(pathlib.Path(directory).glob("*.json"))
    if not paths:
        raise SystemExit(f"no *.json reports in {directory}")
    return [json.loads(path.read_text()) for path in paths]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _digests(payload) -> dict:
    return {key: answer["digest"] for key, answer in payload["answers"].items()}


def verdict(parent, change, better: str, bound: float | None) -> tuple[str, int]:
    """``(verdict, pairs won by the change)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0: worse
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) < 0 for p, c in pairs)
    lost = sum(sign * (c - p) > 0 for p, c in pairs)
    q1, median, q3 = quartiles(parent)
    scale = abs(median) or 1.0
    worse_by = sign * (statistics.median(change) - median) / scale
    spread = (q3 - q1) / scale
    enough = len(pairs) >= MIN_PAIRS
    if enough and won >= 0.9 * len(pairs) and -worse_by > spread:
        return "improved", won
    if bound is None:
        return ("worse" if enough and lost >= 0.9 * len(pairs) and worse_by > spread
                else "within noise"), won
    if worse_by > bound:
        return "regressed", won
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", won
    return "no worse", won


def count_verdict(parent, change, better: str) -> str:
    """Pairwise verdict of a count, which has no run-to-run noise."""
    sign = 1.0 if better == "lower" else -1.0
    worse = [sign * (c - p) for p, c in zip(parent, change)]
    if not any(worse):
        return "same"
    if all(w <= 0 for w in worse):
        return "improved"
    if all(w >= 0 for w in worse):
        return "worse"
    return "mixed"


def settings_mismatch(parent_runs, change_runs) -> list[str]:
    """Why the two sides' reports cannot be compared ([] = they can)."""
    problems = []
    runs = parent_runs + change_runs
    for key in SETTINGS:
        values = {json.dumps(run["args"].get(key)) for run in runs}
        if len(values) > 1:
            problems.append(f"--{key} differs between reports: {', '.join(sorted(values))}")
    for i, (p, c) in enumerate(zip(parent_runs, change_runs)):
        if p["args"].get("seed") != c["args"].get("seed"):
            problems.append(f"pair {i}: --seed {p['args'].get('seed')} vs {c['args'].get('seed')}")
    return problems


def compare(parent_runs, change_runs, spec) -> tuple[list[str], bool]:
    """Report lines and whether the change is acceptable."""
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    lines, ok = [], True
    pairs = list(zip(parent_runs, change_runs))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        both = [(p["workloads"][workload], c["workloads"][workload]) for p, c in pairs
                if workload in p["workloads"] and workload in c["workloads"]]
        if not both:
            continue
        same = sum(_digests(p) == _digests(c) for p, c in both)
        lines.append(f"{workload}: digests equal in {same}/{len(both)} pairs")
        ok = ok and same == len(both)
        for metric, bound in metrics:
            name = metric["name"]
            values = [(p["metrics"][name], c["metrics"][name]) for p, c in both
                      if name in p["metrics"] and name in c["metrics"]]
            if not values:
                continue
            parent, change = [v[0] for v in values], [v[1] for v in values]
            if metric["unit"] in EXACT_UNITS:
                if name in INPUT_COUNTS:
                    equal = sum(p == c for p, c in values)
                    result = ("same" if equal == len(values)
                              else f"DIFFERS in {len(values) - equal} pairs")
                    ok = ok and equal == len(values)
                else:
                    result = count_verdict(parent, change, metric["better"])
                lines.append(f"  {name:<28} {statistics.median(parent):>12.6g} "
                             f"{statistics.median(change):>12.6g} {metric['unit']:<8} {result}")
                continue
            result, won = verdict(parent, change, metric["better"], bound)
            ok = ok and result != "regressed"
            pq, cq = quartiles(parent), quartiles(change)
            lines.append(
                f"  {name:<28} {pq[1]:>12.6g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                f"{cq[1]:>12.6g} [{cq[0]:.4g}, {cq[2]:.4g}] {metric['unit']:<8} "
                f"won {won}/{len(values)} "
                f"bound {'-' if bound is None else format(bound, 'g'):<5} {result}"
            )
    return lines, ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load_runs(argv[0]), load_runs(argv[1])
    problems = settings_mismatch(parent_runs, change_runs)
    if problems:
        print("refusing to compare:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    if len(parent_runs) != len(change_runs):
        print(f"unequal run counts: {len(parent_runs)} vs {len(change_runs)}; "
              "pairing the first runs only", file=sys.stderr)
    lines, ok = compare(parent_runs, change_runs, spec)
    print("metric  parent median [q1, q3]  change median [q1, q3]  unit  pairs won  bound  verdict")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
