"""phaselab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a phaselab checkout.  Each run starts fresh worker
processes (``worker.py``) with the checkout's ``src`` on ``PYTHONPATH`` and
``PHASESPACE_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``.  With ``--trace 0`` the
workload's jobs run untraced and the end-to-end metrics are reported; with
``--trace 1`` a separate run wraps phaselab's public functions and reports the
per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity-sweep", "kernels-n2048", "dist-n1024", "sample-1m")

# Set-up-only worker starts per run, besides the measuring worker; set-up
# time is the median of all of them.
SETUP_REPEATS = 6
# Each worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 165.0

# The unit of work behind work_per_s, by workload.
WORK_NAME = {
    "identity-sweep": "states_per_s",
    "kernels-n2048": "cells_per_s",
    "dist-n1024": "cells_per_s",
    "sample-1m": "shots_per_s",
}


class RunError(Exception):
    """A worker failed to start, crashed or timed out: no result is printed."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=str(ROOT / "src"), PHASESPACE_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def _worker(args, workdir: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    result = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir / tag), "--result", str(result),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {tag} timed out") from exc
    if proc.returncode != 0 or not result.exists():
        raise RunError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _percentile_with_tail(times: list, tail: int = 10):
    """The highest percentile of ``times`` with at least ``tail`` samples
    beyond it: (value, percentile), or None when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= tail:
        return None
    return ordered[n - tail - 1], 100.0 * (n - tail) / n


def end_to_end(setups: list, main: dict) -> dict:
    jobs = main["jobs"]
    times = [j["time_s"] for j in jobs]
    job_time = sum(times)
    work = sum(j["work"] for j in jobs if j["passed"])
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "work_per_s": work / job_time,
        "peak_rss_mib": main["peak_rss_mib"],
    }


def details(workload: str, main: dict, metrics: dict) -> list:
    """The human-readable report: every end-to-end metric the workload has,
    under the names its definition uses."""
    jobs = main["jobs"]
    times = [j["time_s"] for j in jobs]
    failed = sum(not j["passed"] for j in jobs)
    lines = [f"machine {json.dumps(main['machine'], sort_keys=True)}",
             f"workload {workload}: {len(jobs)} jobs, {failed} failed, closed loop, 1 process"]
    rows = [("setup_s", metrics["setup_s"], "s"),
            ("job_p50_s", metrics["job_p50_s"], "s"),
            (WORK_NAME[workload], metrics["work_per_s"], "1/s")]
    tail = _percentile_with_tail(times)
    if tail is None:
        rows.append(("job_tail_s", float("nan"), f"s (needs more than 10 jobs, ran {len(times)})"))
    else:
        rows.append(("job_tail_s", tail[0], f"s (p{tail[1]:.0f} of {len(times)} jobs)"))
    if workload == "dist-n1024":
        rows.append(("reload_s", statistics.median(j["reload_s"] for j in jobs), "s"))
    rows += [("peak_rss_mib", metrics["peak_rss_mib"], "MiB"),
             ("failed_frac", failed / len(jobs), "ratio")]
    lines += [f"  {name} = {value:.6g} {unit}" for name, value, unit in rows]
    return lines


def run(args) -> int:
    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"no phaselab sources under {ROOT / 'src'}; run from a phaselab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(0 if args.tiny else SETUP_REPEATS):
                setups.append(_worker(args, workdir, f"setup-{i}", deadline, True)["setup_s"])
        main = _worker(args, workdir, "main", deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main["setup_s"])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    jobs = main["jobs"]
    failed = sum(not j["passed"] for j in jobs)
    if args.trace:
        layers = main["layers"]
        spans_file = ROOT / ".perfbench_work" / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps(main["spans"]))
        print(f"machine {json.dumps(main['machine'], sort_keys=True)}")
        print(f"workload {args.workload} traced: {len(jobs)} jobs "
              f"({sum(j['traced'] for j in jobs)} traced), {failed} failed; "
              f"spans in {spans_file.relative_to(ROOT)}")
        for name, value in sorted(layers.items()):
            print(f"  {name} = {value:.6g}")
        names = [m["name"] for m in benchmark["per_layer"]]
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {name: layers[name] for name in names}
    else:
        metrics = end_to_end(setups, main)
        print("\n".join(details(args.workload, main, metrics)))
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="n = 64 and 4096 shots, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
