"""Runs every workload once and prints its end-to-end metrics, one row each.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each cell is a metric named with its unit, as ``BENCHMARK.json`` lists
them, plus the failed share with its base (failed / attempted operations)
and the outcome of the output check. Exits 1 when any workload's output
check fails or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + ["failed_share", "check"]
    rows = [header]
    notes = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        share = details["failed_share"]
        tail = details["transcript_tail"]
        rows.append(
            [workload]
            + [f"{result['metrics'][n]['value']:.6g}" for n in names]
            + [f"{share['value']:.3g} ({share['failed']}/{share['attempted']})",
               "pass" if result["correct"] else "FAIL"]
        )
        notes.append(
            f"{workload}: transcript_tail_s is p{tail['percentile']:g} of {tail['calls']} calls, "
            f"{tail['beyond']} beyond"
        )
        ok = ok and result["correct"]
        for problem in details["problems"]:
            print(f"{workload}: {problem}", file=sys.stderr)
    if len(rows) > 1:
        print("machine: " + ", ".join(f"{k} {details[k]}" for k in ("nproc", "cpu", "python", "numpy")))
        print(f"seed {args.seed}, {seconds:g} s a run, timings scaled to the reference host speed (hostspeed.py)")
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print("\n".join(notes))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
