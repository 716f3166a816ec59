"""The benchmark's four workloads: seeded inputs, one job per state, output checks.

Every call into phaselab goes through a module attribute (``phasespace.husimi``,
``cli.main``) so that the traced run's wrappers see it.  Checks compare values
computed within the same job, never stored reference outputs, so a commit that
only changes round-off still passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phaselab import cli, core, measurement, phasespace, pointer
from phaselab import io as plio

OVER_P = phasespace.MarginalAxis.OVER_P
OVER_X = phasespace.MarginalAxis.OVER_X

# The test suite's tolerances (tests/test_acceptance.py, tests/test_phasespace.py).
TOL_SUCCESSIVE = 1e-8
TOL_CHARACTERISTIC = 1e-6
TOL_MARGINAL = 1e-6
TOL_POINTER = 1e-5
TOL_TRACE = 1e-9
TOL_NORM = 1e-6
TOL_NEGATIVE = -1e-12


@dataclass(frozen=True)
class Size:
    """Grid and sampling size of one workload."""

    n: int
    x_min: float
    x_max: float
    shots: int = 0


WORKLOADS = ("identity-sweep", "kernels-n2048", "dist-n1024", "sample-1m")

FULL = {
    "identity-sweep": Size(256, -16.0, 16.0),
    "kernels-n2048": Size(2048, -32.0, 32.0),
    "dist-n1024": Size(1024, -16.0, 16.0),
    "sample-1m": Size(256, -16.0, 16.0, shots=1_000_000),
}

# Smoke-test size: dx = 0.25 keeps delta = 0.25 resolved (delta >= 4 dx^2).
TINY = {name: Size(64, -8.0, 8.0, shots=4096 if name == "sample-1m" else 0) for name in WORKLOADS}

# Distinct states generated per run; jobs cycle through them.
POOL = {"identity-sweep": 64, "kernels-n2048": 4, "dist-n1024": 4, "sample-1m": 4}

# sample-1m: job 1 repeats job 0's state and sampler seed, so its artifacts
# must match byte for byte.
REPEATED_JOB = 1

BINS = (32, 32)


def random_state(grid: core.Grid, rng: np.random.Generator) -> core.WaveFunction:
    """Random superposition of 1-4 coherent/Fock components, drawn as the test
    suite's ``random_state`` draws them.  A component that does not decay at
    the grid edges is drawn again; at the full sizes none is."""
    amp = np.zeros(grid.n, dtype=np.complex128)
    for _ in range(int(rng.integers(1, 5))):
        c = rng.normal() + 1j * rng.normal()
        for _attempt in range(1000):
            try:
                if rng.random() < 0.5:
                    x0, p0 = rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0)
                    part = core.coherent_state(grid, x0, p0, rng.uniform(0.5, 2.0))
                else:
                    part = core.fock_state(grid, int(rng.integers(0, 7)))
                break
            except core.EnvelopeError:
                continue
        else:
            raise RuntimeError(f"no state component fits grid {grid}")
        amp = amp + c * part.amp
    return core.normalize(core.WaveFunction(grid, core.Basis.POSITION, amp))


@dataclass
class Inputs:
    """Everything a run's jobs read: states in memory, state files on disk,
    sampler seeds.  Built during set-up, before the first job."""

    size: Size
    states: list
    files: list
    seeds: list


def make_inputs(name: str, seed: int, size: Size, workdir: Path) -> Inputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    grid = core.make_grid(size.n, size.x_min, size.x_max)
    states = [random_state(grid, rng) for _ in range(POOL[name])]
    files = []
    if name in ("dist-n1024", "sample-1m"):
        for i, psi in enumerate(states):
            path = workdir / f"state-{i}.json"
            plio.save_wavefunction(psi, path)
            files.append(path)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=len(states))]
    return Inputs(size, states, files, seeds)


@dataclass
class JobResult:
    failures: list
    work: float
    reload_s: float = 0.0


def _linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _check(failures: list, label: str, ok: bool) -> None:
    if not ok:
        failures.append(label)


def _check_marginals(failures: list, psi, w) -> None:
    _check(failures, "wigner over-p marginal",
           _linf(phasespace.marginal(w, OVER_P), core.as_position(psi).density()) < TOL_MARGINAL)
    _check(failures, "wigner over-x marginal",
           _linf(phasespace.marginal(w, OVER_X), core.as_momentum(psi).density()) < TOL_MARGINAL)


def identity_job(inputs: Inputs, k: int, jobdir: Path) -> JobResult:
    """The paper's three routes on one state.  Work: one state."""
    psi = inputs.states[k % len(inputs.states)]
    failures = []
    for delta in (0.25, 1.0, 4.0):
        q = phasespace.husimi(psi, delta)
        direct = measurement.successive_density(psi, delta)
        _check(failures, f"successive vs husimi delta={delta}",
               _linf(direct.values, q.values) < TOL_SUCCESSIVE)
        if delta == 1.0:
            q1 = q
    via = phasespace.husimi_via_characteristic(psi)
    _check(failures, "characteristic vs husimi", _linf(via.values, q1.values) < TOL_CHARACTERISTIC)
    _check_marginals(failures, psi, phasespace.wigner(psi))
    for g in (1.0, 0.5):
        dev = pointer.pointer_vs_direct(psi, pointer.CouplingSpec(g=g))
        _check(failures, f"pointer g={g}", dev < TOL_POINTER)
    return JobResult(failures, work=1.0)


def kernels_job(inputs: Inputs, k: int, jobdir: Path) -> JobResult:
    """Every dense kernel once at large n.  Work: n^2 cells per distribution returned."""
    psi = inputs.states[k % len(inputs.states)]
    failures = []
    _check_marginals(failures, psi, phasespace.wigner(psi))
    cg = phasespace.characteristic(psi, -1.0)
    origin = cg.values[cg.u.size // 2, int(np.argmin(np.abs(cg.v)))]
    _check(failures, "characteristic origin", abs(origin - 1.0) < TOL_TRACE)
    via = phasespace.husimi_via_characteristic(psi)
    direct = measurement.successive_density(psi, 1.0)
    q = phasespace.husimi(psi, 1.0)
    _check(failures, "characteristic vs husimi", _linf(via.values, q.values) < TOL_CHARACTERISTIC)
    _check(failures, "successive vs husimi", _linf(direct.values, q.values) < TOL_SUCCESSIVE)
    dev = pointer.pointer_vs_direct(psi, pointer.CouplingSpec(g=0.5))
    _check(failures, "pointer g=0.5", dev < TOL_POINTER)
    return JobResult(failures, work=5.0 * inputs.size.n**2)


def _run_cli(failures: list, argv: list) -> None:
    """One ``phaselab`` invocation; its printed report is kept out of the
    benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    _check(failures, f"exit code {code}: phaselab {' '.join(argv[:3])}", code == 0)


def _reports_pass(failures: list, out: Path) -> None:
    for path in sorted(out.glob("*.json")):
        if path.name.endswith((".summary.json", ".report.json")) or path.name == "report.json":
            doc = json.loads(path.read_text())
            ok = doc.get("pass", True) and doc.get("status", "PASS") == "PASS"
            _check(failures, f"{path.name} does not pass", ok)


def dist_job(inputs: Inputs, k: int, jobdir: Path) -> JobResult:
    """The CLI artifact path on one state file, then a reload of what it wrote.
    Work: n^2 cells per distribution written (wigner, husimi, characteristic)."""
    i = k % len(inputs.files)
    common = ["--state", str(inputs.files[i]), "--out", str(jobdir)]
    failures = []
    for argv in (
        ["dist", "--which", "wigner"],
        ["dist", "--which", "husimi", "--format", "csv"],
        ["dist", "--which", "characteristic"],
        ["pointer", "--g", "0.5"],
        ["report"],
    ):
        _run_cli(failures, argv[:1] + common + argv[1:])
    _reports_pass(failures, jobdir)

    start = time.perf_counter()
    w = plio.load_distribution(jobdir / "wigner.json")
    q = plio.load_distribution(jobdir / "husimi.csv")
    reload_s = time.perf_counter() - start

    momentum = core.as_momentum(inputs.states[i]).density()
    _check(failures, "reloaded wigner normalization", abs(w.normalization() - 1.0) < TOL_NORM)
    _check(failures, "reloaded wigner p-marginal",
           _linf(phasespace.marginal(w, OVER_X), momentum) < TOL_MARGINAL)
    _check(failures, "reloaded husimi minimum", float(q.values.min()) >= TOL_NEGATIVE)
    _check(failures, "reloaded husimi normalization", abs(q.normalization() - 1.0) < TOL_NORM)
    return JobResult(failures, work=3.0 * inputs.size.n**2, reload_s=reload_s)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SampleJobs:
    """``phaselab sample`` then ``phaselab report``.  Work: shots.

    Holds the digests of job 0's artifacts so that job 1, which repeats job
    0's inputs, can be compared byte for byte after job 0's files are gone."""

    def __init__(self):
        self.first_digests = None

    def __call__(self, inputs: Inputs, k: int, jobdir: Path) -> JobResult:
        i = 0 if k == REPEATED_JOB else k
        shots = inputs.size.shots
        failures = []
        _run_cli(failures, [
            "sample", "--state", str(inputs.files[i % len(inputs.files)]),
            "--out", str(jobdir), "--shots", str(shots),
            "--seed", str(inputs.seeds[i % len(inputs.seeds)]),
            "--bins", str(BINS[0]), str(BINS[1]),
        ])
        _run_cli(failures, ["report", "--out", str(jobdir)])
        report = json.loads((jobdir / "sample.report.json").read_text())
        _check(failures, f"sample status {report.get('status')}", report.get("status") == "PASS")
        records = jobdir / "records.csv"
        with records.open("rb") as fh:
            lines = sum(1 for _ in fh)
        _check(failures, f"records.csv has {lines} lines", lines == shots + 1)
        digests = (_digest(records), _digest(jobdir / "histogram.json"))
        if k == 0:
            self.first_digests = digests
        elif k == REPEATED_JOB:
            _check(failures, "repeated seed changed records.csv", digests[0] == self.first_digests[0])
            _check(failures, "repeated seed changed histogram", digests[1] == self.first_digests[1])
        return JobResult(failures, work=float(shots))


def job_runner(name: str):
    """The job function of a workload: (inputs, job index, job directory) -> JobResult."""
    return {
        "identity-sweep": identity_job,
        "kernels-n2048": kernels_job,
        "dist-n1024": dist_job,
        "sample-1m": SampleJobs(),
    }[name]


def min_jobs(name: str) -> int:
    """sample-1m needs the job that repeats job 0's seed."""
    return REPEATED_JOB + 1 if name == "sample-1m" else 1
