"""Run the standard benchmark set and write one BENCH_<label>.json per checkout.

    python3 tools/bench_set.py                          # this checkout
    python3 tools/bench_set.py ../parent .              # two checkouts, paired
    python3 tools/bench_set.py --workloads rupture selection

For each workload, every checkout runs ``perfbench/run.py`` at seeds 1-10
with ``--trace 0``, then once traced at seed 1, each run as long as
``perfbench/run.py`` runs by default.  With several checkouts the
runs of one seed follow each other, and their order alternates from seed to
seed, so that a slow phase of a shared machine falls on both sides.  The file
holds each end-to-end metric's median and quartiles over the seeds, the
traced run's per-layer metrics, whether every run was correct and how many
operations failed, the commit, and the machine's ``nproc``.  It is written
at the root of the repository holding this script.

The label is the checkout's short commit.  When the checkout's ``src/``
differs from that commit, the label adds the first 8 hex digits of
``src_sha256``, a hash of the sources that the file also records.  With two
checkouts the script prints one line per workload and end-to-end metric:
both medians, their ratio, the first checkout's interquartile range and how
many seed pairs the second checkout won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")
SEEDS = range(1, 11)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def source_identity(checkout: Path) -> dict:
    """Commit, whether src/ differs from it, and a hash of every file under src/."""
    commit = _git(checkout, "rev-parse", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain", "--", "src"))
    digest = hashlib.sha256()
    files = _git(checkout, "ls-files", "-co", "--exclude-standard", "--", "src").splitlines()
    for name in sorted(files):
        path = checkout / name
        if path.is_file():
            digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    src_sha = digest.hexdigest()
    label = commit[:7] + (f"+{src_sha[:8]}" if dirty else "")
    return {"label": label, "commit": commit, "src_dirty": dirty, "src_sha256": src_sha}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": (proc.stderr.strip().splitlines() or ["no result"])[-1]}
    result["seed"] = seed
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def pair_summary(pairs: list[tuple[float, float]]) -> dict:
    """Compare (first, second) values of one metric over seed pairs; lower is better.

    Gives both medians, the second's median over the first's, the first's
    interquartile range and how many pairs the second won, ties counting for
    neither.
    """
    first = summarize([a for a, _ in pairs])
    second = summarize([b for _, b in pairs])
    return {"first": first["median"], "second": second["median"],
            "ratio": second["median"] / first["median"], "first_iqr": first["iqr"],
            "wins": sum(b < a for a, b in pairs), "pairs": len(pairs)}


def workload_entry(runs: list[dict], traced: dict) -> dict:
    metrics = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if values:
            unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
            metrics[name] = {"unit": unit, **summarize(values)}
    return {
        "all_correct": all(r["correct"] for r in runs) and traced["correct"],
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics,
        "runs": [{"seed": r["seed"], "correct": r["correct"], "failed": r["failed"],
                  **{k: r["metrics"][k]["value"] for k in END_TO_END if k in r["metrics"]}}
                 for r in runs],
        "traced": {"seed": traced["seed"], "correct": traced["correct"],
                   "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    ap.add_argument("--workloads", nargs="+", default=["curves", "rupture", "selection"],
                    choices=["curves", "rupture", "selection"])
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    ids = [source_identity(c) for c in checkouts]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    files = [{**ident, "nproc": nproc, "python": sys.version.split()[0],
              "seeds": list(SEEDS),
              "workloads": {}} for ident in ids]
    for workload in args.workloads:
        runs = [[] for _ in checkouts]
        for seed in SEEDS:
            order = list(range(len(checkouts)))
            if seed % 2 == 0:
                order.reverse()
            for i in order:
                r = run_once(checkouts[i], workload, seed, 0)
                runs[i].append(r)
                print(f"{workload} seed {seed} {ids[i]['label']}: correct {r['correct']} "
                      f"pass_s {r['metrics'].get('pass_s', {}).get('value')}", flush=True)
        for i, checkout in enumerate(checkouts):
            traced = run_once(checkout, workload, 1, 1)
            files[i]["workloads"][workload] = workload_entry(runs[i], traced)
        if len(checkouts) == 2:
            for name in END_TO_END:
                pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                         for a, b in zip(*runs) if name in a["metrics"] and name in b["metrics"]]
                if pairs:
                    unit = files[0]["workloads"][workload]["metrics"][name]["unit"]
                    s = pair_summary(pairs)
                    print(f"{workload}: {name} median {s['first']:.4g} -> {s['second']:.4g} "
                          f"{unit} ({s['ratio']:.3f}x), first IQR {s['first_iqr']:.3g} {unit}, "
                          f"second won {s['wins']} of {s['pairs']} pairs", flush=True)
    for f in files:
        path = ROOT / f"BENCH_{f['label']}.json"
        path.write_text(json.dumps(f, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    ok = all(w["all_correct"] and w["failed"] == 0 for f in files for w in f["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
