"""One benchmark process: set up a workload's inputs, run its jobs in a closed
loop for the given time, write the raw results as JSON.

Started by ``run.py`` with the phaselab checkout's ``src`` on ``PYTHONPATH``;
``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before the
start, so set-up time includes interpreter start and imports.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_block(seed: int) -> dict:
    import numpy as np

    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            cache[f"L{level}"] = size
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": cache.get("L2"),
        "l3": cache.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("PHASESPACE_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import phaselab

    if not Path(phaselab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"phaselab imported from {phaselab.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    name = args.workload
    size = (workloads.TINY if args.tiny else workloads.FULL)[name]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(name, args.seed, size, args.workdir)
    setup_s = _now() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    run_job = workloads.job_runner(name)
    jobs = []
    start = _now()
    k = 0
    # Closed loop: each job starts when the previous one returns.  In the
    # traced run even jobs run untraced and odd jobs traced, so the two
    # halves give the tracing overhead under the same conditions.  A further
    # job starts only if, at the median job time so far, it ends nearer to
    # --seconds than stopping now would, so a run of long jobs measures about
    # --seconds.
    least = max(workloads.min_jobs(name), 2 if tracer else 1)

    def another_job() -> bool:
        if k < least:
            return True
        typical = statistics.median(j["time_s"] for j in jobs)
        return _now() - start + typical / 2 < args.seconds

    while another_job():
        traced = bool(tracer) and k % 2 == 1
        jobdir = args.workdir / f"job-{k}"
        jobdir.mkdir()
        if traced:
            tracer.job = k
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = run_job(inputs, k, jobdir)
            failures, work, reload_s = res.failures, res.work, res.reload_s
        except Exception:
            failures, work, reload_s = [traceback.format_exc(limit=3)], 0.0, 0.0
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        shutil.rmtree(jobdir, ignore_errors=True)
        for failure in failures:
            print(f"job {k} failed: {failure}", file=sys.stderr)
        jobs.append({"id": k, "time_s": elapsed, "passed": not failures, "work": work,
                     "reload_s": reload_s, "traced": traced})
        k += 1

    result.update(
        jobs=jobs,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_block(args.seed),
    )
    if tracer:
        traced = {j["id"]: j["time_s"] for j in jobs if j["traced"]}
        plain = [j["time_s"] for j in jobs if not j["traced"]]
        layers = spans.layer_metrics(tracer, traced)
        for fn, mib in tracer.peak_alloc_mib().items():
            layers[f"{fn}.peak_alloc_mib"] = mib
        layers["trace_overhead_frac"] = (
            statistics.median(traced.values()) / statistics.median(plain) - 1.0
        )
        result["layers"] = layers
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.job] for s in tracer.spans]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
