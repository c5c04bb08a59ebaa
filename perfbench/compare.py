"""Side-by-side comparison of two sets of saved benchmark records.

For each workload and metric: both medians, their ratio (new / base), both
quartile spreads as a share of the median, and how many seed-matched pairs
the new side wins (ties count for neither side).
"""

import glob
import json
import os
import statistics


def load(directory):
    """{(workload, trace): [record, ...]} for every record under directory."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as f:
            record = json.load(f)
        if isinstance(record, dict) and "metrics" in record and "workload" in record:
            groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def spread(values):
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def directions(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(base_dir, new_dir, root):
    base, new = load(base_dir), load(new_dir)
    better = directions(root)
    print(f"base {base_dir}  new {new_dir}")
    header = (f"{'workload':18s} {'metric':40s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
              f"{'base IQR':>9s} {'new IQR':>9s} {'wins':>7s}")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        names = [n for n in base[key][0]["metrics"] if n in new[key][0]["metrics"]]
        for name in names:
            va = [r["metrics"][name][0] for r in base[key]]
            vb = [r["metrics"][name][0] for r in new[key]]
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else float("nan")
            wins = "-"
            if name in better:
                # pairs match the last record of each seed on either side
                a = {r["seed"]: r["metrics"][name][0] for r in base[key]}
                b = {r["seed"]: r["metrics"][name][0] for r in new[key]}
                sign = 1.0 if better[name] == "higher" else -1.0
                pairs = [s for s in a if s in b]
                won = sum(1 for s in pairs if sign * (b[s] - a[s]) > 0)
                wins = f"{won}/{len(pairs)}"
            print(f"{workload:18s} {name:40s} {ma:12.6g} {mb:12.6g} {ratio:9.4f} "
                  f"{spread(va):9.4f} {spread(vb):9.4f} {wins:>7s}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} trace={key[1]}: only in {'base' if key in base else 'new'}")
    return 0
