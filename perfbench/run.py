"""respeval benchmark: one workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed
(``corpus.py``); set-up time is measured over fresh interpreters, then one
fresh child process (``worker.py``) runs the workload. The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, their timings scaled to
a reference host speed by ``hostspeed.py``; per-layer metrics with
``--trace 1``); the line before it holds the run's details: machine facts,
corpus facts, the tail percentile, the failed share and its base, and the
end-to-end timings as measured (``wall``, ``setup_wall``) with the host-speed
samples behind the scaling.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
SETUP_REPEATS = 11
SETUP_CHUNKS = 20  # host-speed samples before each set-up interpreter and after the last
# Fresh interpreter -> import respeval.cli -> the workload's resource files
# loaded: the fixed cost every respeval invocation pays.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import respeval.cli
flags = sys.argv[2:]
respeval.cli.load_resources(**{k[2:].replace("-", "_"): v for k, v in zip(flags[::2], flags[1::2])})
"""
UNITS = {"segments_per_s": "seg/s", "peak_rss_mb": "MiB"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.startswith("trace.") else "count"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(), "numpy": numpy}


def measure_setup(resource_args: list[str], deadline: float) -> tuple[float, int, dict]:
    """Median wall time of SETUP_REPEATS fresh interpreters, scaled to the
    reference host speed; failures count. Also returns the wall figures."""
    times = []
    failures = 0
    host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_CHUNKS):
            host.sample()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), *resource_args],
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(time.perf_counter() - start)
        failures += done.returncode != 0
    for _ in range(SETUP_CHUNKS):
        host.sample()
    wall = statistics.median(times)
    return wall * host.scale(), failures, {"setup_s": wall, "host_speed": host.facts()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [p for p in ("src/respeval/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a respeval checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = corpus.WORKLOADS[args.workload]
        resource_args = corpus.Language(workload, args.seed).write(work / "resources")
        setup = None if args.trace else measure_setup(resource_args, deadline)
        try:
            done = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "worker.py"),
                    str(ROOT),
                    str(work),
                    args.workload,
                    str(args.seed),
                    str(args.seconds),
                    str(args.trace),
                ],
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"error: workload run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: worker exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if setup is not None:
        metrics["setup_s"] = setup[0]
        attempted += SETUP_REPEATS
        failed += setup[1]
        result["details"]["setup_wall"] = setup[2]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(),
        **result["details"],
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "problems": result["problems"],
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": unit(name)} for name, v in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
