"""Spans for the traced run: wrappers on phaselab's public functions, self
time, and the per-layer metrics built from them.

The wrappers are installed on every name a calling module looks up (for
example ``phaselab.pointer.successive_density`` and ``phaselab.cli.wigner``),
so nothing under ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phaselab
from phaselab import cli, core, io, measurement, phasespace, pointer

MODULES = (phaselab, core, phasespace, measurement, pointer, io, cli)

# Span name -> per-layer metric it is summed into.
LAYER_OF = {
    "core.fourier_sum": "core.fourier_sum",
    **{f"core.{fn}": "core.state" for fn in (
        "coherent_state", "fock_state", "superpose", "normalize", "to_momentum", "to_position")},
    **{f"phasespace.{fn}": f"phasespace.{fn}" for fn in (
        "wigner", "husimi", "characteristic", "invert_characteristic", "marginal")},
    **{f"measurement.{fn}": f"measurement.{fn}" for fn in (
        "successive_density", "m_density", "sample_joint", "apply_m")},
    **{f"measurement.{fn}": "measurement.check" for fn in (
        "coarsen", "tv_distance", "shot_noise_bound")},
    **{f"pointer.{fn}": f"pointer.{fn}" for fn in (
        "pointer_vs_direct", "make_composite", "apply_interaction", "readout_joint")},
    **{f"io.{fn}": f"io.{fn}" for fn in (
        "save_distribution", "load_distribution", "save_wavefunction", "load_wavefunction")},
    **{f"cli.{fn}": f"cli.{fn}" for fn in ("cmd_dist", "cmd_sample", "cmd_pointer", "cmd_report")},
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# Functions whose peak allocation is measured, with tracemalloc, in a separate
# replay of their first call so that it does not slow the timed spans.
PEAK_ALLOC = ("phasespace.wigner", "phasespace.characteristic", "pointer.pointer_vs_direct")

COUNTERS = (
    "core.fourier_sum.calls", "core.fourier_sum.points", "pointer.device_points",
    "io.bytes_written", "io.bytes_read", "cli.bytes_written",
    "measurement.sample_joint.shots", "measurement.sample_joint.rejected",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).glob("*") if p.is_file())


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


class Tracer:
    """Records a span per wrapped call and counts at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.first_calls: dict = {}
        self.job = None
        self._originals: list = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in PEAK_ALLOC and name not in self.first_calls:
                self.first_calls[name] = (fn, args, kwargs)
            out_before = _dir_bytes(args[0].out) if name.startswith("cli.") else 0
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            self._count(name, args, result, out_before)
            return result

        return wrapper

    def _count(self, name: str, args, result, out_before: int) -> None:
        c = self.counts
        if name == "core.fourier_sum":
            c["core.fourier_sum.calls"] += 1
            c["core.fourier_sum.points"] += int(np.asarray(args[0]).size)
        elif name == "pointer.make_composite":
            c["pointer.device_points"] += args[0].n
        elif name.startswith("io.save_"):
            c["io.bytes_written"] += _file_bytes(args[1])
        elif name.startswith("io.load_"):
            c["io.bytes_read"] += _file_bytes(args[0])
        elif name == "measurement.sample_joint":
            c["measurement.sample_joint.shots"] += result.shots
            c["measurement.sample_joint.rejected"] += result.rejected
        elif name.startswith("cli."):
            c["cli.bytes_written"] += _dir_bytes(args[0].out) - out_before

    def install(self) -> None:
        """Replace every looked-up name of each traced function by its wrapper."""
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES}
        for span_name in LAYER_OF:
            mod_name, fn_name = span_name.split(".")
            original = getattr(by_name[mod_name], fn_name)
            wrapper = self._wrap(span_name, original)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def peak_alloc_mib(self) -> dict:
        """Replay the first recorded call of each PEAK_ALLOC function under
        tracemalloc; functions the workload never called report 0."""
        peaks = {}
        for name in PEAK_ALLOC:
            peaks[name] = 0.0
            if name in self.first_calls:
                fn, args, kwargs = self.first_calls[name]
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        return peaks


def layer_metrics(tracer: Tracer, job_times: dict) -> dict:
    """Per-layer metrics of the traced jobs.

    ``job_times`` maps each traced job id to its wall time.  Self time is
    given per traced job (``self_s``) and as a share of traced job time
    (``self_share``); counts are per traced job.
    """
    n_jobs = max(len(job_times), 1)
    total = sum(job_times.values()) or 1.0
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        if span.job in job_times and span.name in LAYER_OF:
            self_s[LAYER_OF[span.name]] += t
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / n_jobs
        out[f"{layer}.self_share"] = self_s[layer] / total
    c = tracer.counts
    for key in ("core.fourier_sum.calls", "core.fourier_sum.points", "pointer.device_points",
                "io.bytes_written", "io.bytes_read", "cli.bytes_written"):
        out[key] = c[key] / n_jobs
    drawn = c["measurement.sample_joint.shots"] + c["measurement.sample_joint.rejected"]
    out["measurement.sample_joint.accept_ratio"] = (
        c["measurement.sample_joint.shots"] / drawn if drawn else 0.0
    )
    return out
