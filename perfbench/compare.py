#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

  python3 perfbench/compare.py run --out DIR [--workloads a,b] [--seeds 1-10]
                                   [--trace 0|1] [--seconds N]
      Runs the benchmark command from BENCHMARK.json once per workload and
      seed (from the root of the checkout this script is in) and appends
      each run's result line, tagged with its seed, to
      DIR/<workload>.trace<N>.jsonl. A run that exits non-zero is reported
      and recorded with "correct": false. A seed already recorded in the
      file is an error.

  python3 perfbench/compare.py spread DIR
      For every workload x end-to-end metric, setup_s included: median,
      quartiles and the spread (interquartile range / median) against the
      metric's bound. Marks a spread above a third of the bound "wide" and
      one above the bound "OUT".

  python3 perfbench/compare.py diff PARENT_DIR CHANGE_DIR
      For every workload x end-to-end metric, a verdict on the change:
        improved    the change wins at least 9 of 10 pairs of runs with the
                    same seed, and the medians differ by more than the
                    parent's IQR
        no worse    the change's median is not worse by more than the bound
        unresolved  a side's spread is wider than the bound (unless every
                    change run beats every parent run)
        regressed   the change's median is worse by more than the bound
      then the per-layer medians and their deltas (from trace-1 runs).
      Runs are paired by seed; both sets should use the same seeds.

The machine's speed drifts over minutes, so record the two sets seed by
seed in turn, alternating which side goes first, rather than one whole
set after the other, from two checkouts (each runs its own code):

  for s in $(seq 1 10); do
    sides="parent change"; [ $((s % 2)) = 0 ] && sides="change parent"
    for side in $sides; do
      python3 $side/perfbench/compare.py run --out runs/$side --seeds $s
    done
  done
  python3 change/perfbench/compare.py diff runs/parent runs/change

Exits 1 if any run failed its output checks (run), a set has a seed
twice (spread, diff), any spread is above its bound (spread) or any
verdict is "regressed" (diff).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    paths = {w: os.path.join(args.out, f"{w}.trace{args.trace}.jsonl") for w in workloads}
    for path in paths.values():
        if os.path.exists(path):
            with open(path) as f:
                again = {json.loads(line).get("seed") for line in f if line.strip()} & set(seeds)
            if again:
                sys.exit(f"{path} already has seeds {sorted(again)}; use another --out or seeds")
    failed = False
    for w, path in paths.items():
        for seed in seeds:
            argv = spec["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            if p.returncode != 0 or not result.get("correct"):
                failed = True
                result["correct"] = False
                sys.stderr.write(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}\n")
            result["seed"] = seed
            with open(path, "a") as f:
                f.write(json.dumps(result) + "\n")
            shown = result["metrics"].items() if args.trace == 0 else []
            print(f"{w} seed {seed}: correct={result['correct']} " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in shown if v.get("value") is not None),
                flush=True)
    return 1 if failed else 0


def load_runs(directory, trace):
    """{workload: {seed: result}}. A seed recorded twice is an error."""
    runs = {}
    suffix = f".trace{trace}.jsonl"
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffix):
            path = os.path.join(directory, name)
            rows = {}
            with open(path) as f:
                for line in f:
                    if not line.strip():
                        continue
                    r = json.loads(line)
                    if r.get("seed") in rows:
                        sys.exit(f"{path} has seed {r.get('seed')} twice")
                    rows[r.get("seed")] = r
            runs[name[: -len(suffix)]] = rows
    return runs


def values(rows, metric):
    """{seed: value} of one metric."""
    out = {}
    for seed, r in rows.items():
        v = r["metrics"].get(metric, {}).get("value")
        if v is not None:
            out[seed] = float(v)
    return out


def summary(vals):
    """(median, q1, q3, spread) with statistics.quantiles' quartiles."""
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    if med:
        spread = (q3 - q1) / abs(med)
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, spread


def cmd_spread(args):
    spec = load_spec()
    runs = load_runs(args.dir, 0)
    print(f"{'workload':<12} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound/3':>8}")
    out = False
    for w, rows in runs.items():
        for m in spec["end_to_end"]:
            vals = list(values(rows, m["name"]).values())
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            flag = ""
            if spread > m["bound"]:
                flag, out = "  <-- OUT", True
            elif spread > m["bound"] / 3:
                flag = "  <-- wide"
            print(f"{w:<12} {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {m['bound'] / 3:>8.4f}{flag}")
    return 1 if out else 0


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    """Verdict on two {seed: value} sets; runs pair up by seed."""
    bound, direction = metric["bound"], metric["better"]
    pairs = [(parent[s], change[s]) for s in sorted(parent.keys() & change.keys())]
    parent, change = list(parent.values()), list(change.values())
    mp, q1p, q3p, sp = summary(parent)
    mc, _, _, sc = summary(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    worse_by = (mc - mp) / abs(mp) if mp else 0.0
    if direction == "higher":
        worse_by = -worse_by
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mp) > (q3p - q1p):
        return "improved", mp, mc, worse_by, wins, len(pairs)
    if max(sp, sc) > bound:
        if all(better(c, p, direction) for p in parent for c in change):
            return "improved", mp, mc, worse_by, wins, len(pairs)
        return "unresolved", mp, mc, worse_by, wins, len(pairs)
    if worse_by > bound:
        return "regressed", mp, mc, worse_by, wins, len(pairs)
    return "no worse", mp, mc, worse_by, wins, len(pairs)


def cmd_diff(args):
    spec = load_spec()
    parent, change = load_runs(args.parent, 0), load_runs(args.change, 0)
    regressed = False
    print(f"{'workload':<12} {'metric':<16} {'parent':>14} {'change':>14} {'worse by':>9} "
          f"{'bound':>6} {'wins':>6}  verdict")
    for w in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p, c = values(parent[w], m["name"]), values(change[w], m["name"])
            if not p or not c:
                continue
            v, mp, mc, worse_by, wins, n = verdict(p, c, m)
            regressed |= v == "regressed"
            print(f"{w:<12} {m['name']:<16} {mp:>14.6g} {mc:>14.6g} {worse_by:>+9.2%} "
                  f"{m['bound']:>6.2f} {wins:>3}/{n:<2}  {v}")
    parent_l, change_l = load_runs(args.parent, 1), load_runs(args.change, 1)
    if parent_l and change_l:
        print(f"\n{'workload':<12} {'per-layer metric':<46} {'parent':>14} {'change':>14} "
              f"{'delta':>9}")
        for w in sorted(set(parent_l) & set(change_l)):
            for m in spec["per_layer"]:
                p, c = values(parent_l[w], m["name"]), values(change_l[w], m["name"])
                if not p or not c:
                    continue
                mp, mc = statistics.median(p.values()), statistics.median(c.values())
                delta = f"{(mc - mp) / abs(mp):+9.2%}" if mp else f"{mc - mp:+9.3g}"
                print(f"{w:<12} {m['name']:<46} {mp:>14.6g} {mc:>14.6g} {delta}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--seconds", type=int)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    return {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
