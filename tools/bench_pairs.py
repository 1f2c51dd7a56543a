#!/usr/bin/env python3
"""Runs the repository benchmark in alternating parent/change pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload <name> --seed <n> --pairs <k> --out FILE
    python3 tools/bench_pairs.py --check FILE

DIR is a source tree (a `git archive` export or a clone) holding
perfbench/run.py. Each pair runs `python3 perfbench/run.py` once in each
tree, from the tree's root, with CARGO_TARGET_DIR set to the tree's own
.bench_build, for run.py's own default run length (the same on both
sides); even pairs run the parent first, odd pairs the change first, so
slow drift of the host's speed falls on both sides alike. A run that exits
nonzero or reports `correct: false` stops the tool. Every run's JSON
result is appended to FILE's `runs` (FILE is created if absent; its other
top-level fields are kept), and `summary` is recomputed for every
(workload, seed) in it: per end-to-end metric of BENCHMARK.json, the
parent's and the change's quartiles and extremes, the relative change of
the median, how many pairs the change wins, and `gain_rule_met` (see
GAIN_RULE).

--check recomputes every summary from `runs` and exits 1 if any differs
from the one stored in FILE. It takes each metric's name, better
direction and bound from FILE's own summary, not from the current
BENCHMARK.json, so an old record checks against what it measured.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --trace 0"
ORDER = "alternating pairs: even pairs run the parent first, odd pairs the change first"
GAIN_RULE = ("gain_rule_met: at least 10 pairs, the change wins at least 9 in 10 "
             "(ties count for neither), the medians differ, in the better "
             "direction, by more than the parent's interquartile range, and "
             "the change fails no more operations in total than the parent")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def end_to_end_metrics():
    """[{name, better, bound}] of BENCHMARK.json's end-to-end metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return [{k: m[k] for k in ("name", "better", "bound")}
                for m in json.load(f)["end_to_end"]]


def stored_metrics(summary):
    """The same list, read back from one stored (workload, seed) summary."""
    return [{"name": name, "better": s["better"], "bound": s["bound"]}
            for name, s in summary.items()]


def quartiles(values):
    """q1, median, q3 (statistics.quantiles' exclusive method)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [q1, med, q3]


def summarize(runs, metrics):
    """Summary of one (workload, seed): every pair must have both sides."""
    pairs = {}
    failed = {"parent": 0, "change": 0}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        failed[r["side"]] += r["result"]["failed"]
    for p, sides in sorted(pairs.items()):
        if set(sides) != {"parent", "change"}:
            raise ValueError(f"pair {p} lacks a side: has {sorted(sides)}")
    ordered = [pairs[p] for p in sorted(pairs)]
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [s["parent"][name]["value"] for s in ordered]
        change = [s["change"][name]["value"] for s in ordered]
        pq, cq = quartiles(parent), quartiles(change)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        gain = sign * (cq[1] - pq[1])
        out[name] = {
            "parent_q1_median_q3": [round(v, 6) for v in pq],
            "change_q1_median_q3": [round(v, 6) for v in cq],
            "parent_min_max": [round(min(parent), 6), round(max(parent), 6)],
            "change_min_max": [round(min(change), 6), round(max(change), 6)],
            "median_change_rel":
                round((cq[1] - pq[1]) / pq[1], 4) if pq[1] else 0.0,
            "change_wins": wins,
            "pairs": len(ordered),
            "gain_rule_met": (len(ordered) >= MIN_PAIRS and
                              wins >= WIN_SHARE * len(ordered) and
                              gain > pq[2] - pq[0] and
                              failed["change"] <= failed["parent"]),
            "bound": m["bound"],
            "better": better,
        }
    return out


def summaries(doc, metrics_of):
    """Summary per (workload, seed); metrics_of(key) gives its metrics."""
    groups = {}
    for r in doc["runs"]:
        groups.setdefault(f"{r['workload']} seed {r['seed']}", []).append(r)
    return {key: summarize(runs, metrics_of(key))
            for key, runs in groups.items()}


def run_once(tree, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tree) / ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    where = f"bench_pairs: {' '.join(cmd)} in {tree}"
    if proc.returncode != 0:
        sys.exit(f"{where} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{where} printed no JSON result")
    if result.get("correct") is not True:
        sys.exit(f"{where} reported correct: {result.get('correct')}")
    return result


def run_pairs(args):
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(command=COMMAND, order=ORDER, gain_rule=GAIN_RULE,
               nproc=os.cpu_count())
    runs = doc.setdefault("runs", [])
    first = 1 + max((r["pair"] for r in runs
                     if r["workload"] == args.workload and
                     r["seed"] == args.seed), default=-1)
    trees = {"parent": args.parent, "change": args.change}
    for pair in range(first, first + args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for i, side in enumerate(order):
            result = run_once(trees[side], args.workload, args.seed)
            runs.append({"workload": args.workload, "seed": args.seed,
                         "pair": pair, "side": side,
                         "runs_first": i == 0, "result": result})
            qps = result["metrics"]["qps"]["value"]
            print(f"{args.workload} seed {args.seed} pair {pair} {side}: "
                  f"qps {qps:.1f} failed {result['failed']}", file=sys.stderr)
        mine = [r for r in runs if r["workload"] == args.workload and
                r["seed"] == args.seed]
        doc.setdefault("summary", {})[f"{args.workload} seed {args.seed}"] = \
            summarize(mine, end_to_end_metrics())
        out.write_text(json.dumps(doc, indent=1) + "\n")


def check(path):
    doc = json.loads(Path(path).read_text())
    have = doc.get("summary", {})
    try:
        want = summaries(doc, lambda key: stored_metrics(have[key]))
    except (KeyError, ValueError) as e:
        print(f"{path}: cannot recompute the summary: {e!r}", file=sys.stderr)
        return 1
    bad = sorted(k for k in want.keys() | have.keys()
                 if want.get(k) != have.get(k))
    for k in bad:
        print(f"{path}: summary '{k}' does not match its runs",
              file=sys.stderr)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", metavar="FILE")
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--out")
    args = p.parse_args()
    if args.check:
        return check(args.check)
    if None in (args.parent, args.change, args.workload, args.seed, args.out):
        p.error("--parent, --change, --workload, --seed and --out are "
                "required unless --check is given")
    run_pairs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
