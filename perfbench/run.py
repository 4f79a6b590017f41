"""Benchmark for muskat: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Workloads: curves, rupture, selection (see perfbench/README.md).  With
``--trace 0`` the result carries the end-to-end metrics pass_s, setup_s and
peak_rss_mb; with ``--trace 1`` the per-layer metrics of a traced run.  The
program is imported from ``src/`` of the checkout that holds this script;
without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_program():
    """Import muskat from this checkout's src/ and nowhere else."""
    if not (SRC / "muskat" / "__init__.py").is_file():
        print(f"error: no muskat sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import muskat
    if Path(muskat.__file__).resolve().parent != SRC / "muskat":
        print(f"error: imported muskat from {muskat.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_seconds(workload: str, seed: int) -> float | None:
    """Time from starting a fresh interpreter to the point where its first
    timed operation would begin: importing muskat and building the inputs.
    None, with the reason on standard error, if the probe fails."""
    t0 = time.monotonic()
    try:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=30, check=True)
        return float(out.stdout.split()[-1]) - t0
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        tail = (getattr(exc, "stderr", None) or "").strip().splitlines()[-1:]
        print(f"setup probe failed: {exc} {' '.join(tail)}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["curves", "rupture", "selection"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print the monotonic clock and exit")
    args = ap.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # one BLAS thread: the process never exceeds nproc
    _import_program()
    import harness

    if args.setup_probe:
        harness.WORKLOADS[args.workload](args.seed, False, OUT / "unused")
        print(time.monotonic())
        return 0

    probe = None if args.trace else (lambda: setup_seconds(args.workload, args.seed))
    result, lines, run_dir, setups = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT,
        probe=probe, n_probes=SETUP_REPEATS)
    if probe and result["metrics"]:
        done = [s for s in setups if s is not None]
        if len(done) < len(setups):
            result["correct"] = False
            lines.append(f"  setup probe failed in {len(setups) - len(done)} "
                         f"of {len(setups)} fresh interpreters")
        harness.end_to_end(result, min(done) if done else None)
        lines.append("  setup_s of each fresh interpreter: "
                     + " ".join(f"{s:.3f}" for s in done))
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
