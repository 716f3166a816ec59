"""Command-line front end for reproducible phase-space experiments.

Subcommands: state, dist, sample, pointer, report.  Each run writes its data
files plus a machine-readable report; the exit code is 0 iff that report's
verdict, the one ``phaselab report`` reads from it, is a pass.  Identical
configuration and seed produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import io as plio
from .core import (
    EnvelopeError,
    Observable,
    ResolutionError,
    WaveFunction,
    as_position,
    coherent_state,
    expectation,
    fock_state,
    make_grid,
    superpose,
)
from .measurement import (
    OutcomeIncompatibleError,
    check_bins,
    coarsen,
    sample_joint,
    shot_noise_bound,
    tv_distance,
)
from .phasespace import (
    MarginalAxis,
    characteristic,
    husimi,
    marginal,
    wigner,
)
from .pointer import CouplingSpec, pointer_vs_direct


class StateSpecError(ValueError):
    """A --state value that is neither a state file nor a well-formed spec."""


class ConfigError(ValueError):
    """A --config file that cannot be read, is not JSON or sets unknown fields."""


def _cat(grid, a, delta=1.0) -> WaveFunction:
    """The even superposition of coherent states at (-a, 0) and (a, 0)."""
    left, right = coherent_state(grid, -a, 0.0, delta), coherent_state(grid, a, 0.0, delta)
    return superpose(1.0, left, 1.0, right)


# Spec kind -> (fewest, most numeric parameters, the state on a grid from them).
_SPECS = {
    "coherent": (2, 3, coherent_state),
    "fock": (1, 1, lambda grid, m: fock_state(grid, int(m))),
    "cat": (1, 2, _cat),
}

# Output formats of the data files.
FORMATS = ("csv", "json")

_STATE_HELP = ("constructor spec ('coherent x0 p0 delta', 'fock m', 'cat a delta'; these first "
               "words always mean a spec) or else a state file path")

# Errors of the physics modules, tagged with the module the CLI called into.
_MODULE_ERRORS = (EnvelopeError, ResolutionError, OutcomeIncompatibleError)


@dataclass
class RunConfig:
    grid_n: int = 256
    x_min: float = -16.0
    x_max: float = 16.0
    state: str = "coherent 0 0 1"
    delta: float = 1.0
    g: float = 1.0
    delta_device: float = 1.0
    s: float = -1.0
    shots: int = 0
    seed: int = 0
    bins: tuple = (32, 32)
    out: str = "."
    format: str = "json"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**_config_fields(json.loads(text)))


# Field name -> declared type name ("int", "float", "str" or "tuple").
_FIELDS = {f.name: f.type for f in fields(RunConfig)}

# Declared type name -> the type of its flag's values; a tuple flag takes two.
_FLAG_TYPE = {"int": int, "float": float, "str": str, "tuple": int}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _has_type(value, kind: str) -> bool:
    """Whether a decoded JSON value fits a field declared as `kind`."""
    if kind == "tuple":
        return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))
    if kind == "int":
        return _is_int(value)
    if kind == "float":
        return _is_int(value) or isinstance(value, float)
    return isinstance(value, str)


def _config_fields(doc) -> dict:
    """The RunConfig fields that a decoded config document or the flags set."""
    if not isinstance(doc, dict):
        raise ConfigError("a config file holds one JSON object")
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown field(s) {', '.join(unknown)}")
    for name, value in doc.items():
        kind = _FIELDS[name]
        if not _has_type(value, kind):
            raise ConfigError(f"field {name} must be {'two ints' if kind == 'tuple' else kind}")
    if doc.get("format", "json") not in FORMATS:
        raise ConfigError(f"field format must be {' or '.join(FORMATS)}")
    if "bins" in doc:
        doc["bins"] = tuple(doc["bins"])
    return doc


def _merge_config(args) -> RunConfig:
    """Defaults, then flags, then the fields the config file sets.

    A flag that the file sets to a different value draws a warning.
    """
    flags = _config_fields({k: getattr(args, k) for k in _FIELDS if getattr(args, k) is not None})
    doc = {}
    if args.config:
        try:
            doc = _config_fields(json.loads(Path(args.config).read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
        overridden = sorted(k for k, v in doc.items() if k in flags and flags[k] != v)
        if overridden:
            print(f"warning: config file overrides flags: {', '.join(overridden)}", file=sys.stderr)
    return RunConfig(**{**flags, **doc})


def _build_state(cfg: RunConfig) -> WaveFunction:
    spec = cfg.state.strip()
    if not (spec and spec.split()[0] in _SPECS) and Path(spec).is_file():
        return plio.load_wavefunction(spec)
    kind, params = _parse_spec(spec)
    return _SPECS[kind][2](make_grid(cfg.grid_n, cfg.x_min, cfg.x_max), *params)


def _parse_spec(spec: str) -> tuple:
    """(kind, float parameters) of a constructor spec, checked against its arity."""
    tokens = spec.split()
    kind = tokens[0] if tokens else ""
    if kind not in _SPECS:
        raise StateSpecError(f"unknown state spec {spec!r}; expected 'coherent x0 p0 [delta]', "
                             "'fock m', 'cat a [delta]' or a state file")
    fewest, most, _ = _SPECS[kind]
    if not fewest <= len(tokens) - 1 <= most:
        raise StateSpecError(f"state spec {spec!r}: {kind} takes {fewest} to {most} numbers")
    try:
        params = [float(t) for t in tokens[1:]]
    except ValueError:
        raise StateSpecError(f"state spec {spec!r}: parameters must be numbers") from None
    if not all(map(math.isfinite, params)):
        raise StateSpecError(f"state spec {spec!r}: parameters must be finite")
    if kind == "fock" and not params[0].is_integer():
        raise StateSpecError(f"state spec {spec!r}: the Fock index must be a whole number")
    return kind, params


def _state_metadata(psi: WaveFunction) -> dict:
    ex = expectation(psi, Observable.X)
    ep = expectation(psi, Observable.P)
    return {
        "norm": psi.norm(),
        "mean_x": ex,
        "mean_p": ep,
        "var_x": expectation(psi, Observable.X2) - ex**2,
        "var_p": expectation(psi, Observable.P2) - ep**2,
    }


def cmd_state(cfg: RunConfig, psi: WaveFunction) -> tuple:
    plio.save_wavefunction(psi, Path(cfg.out) / f"state.{cfg.format}", fmt=cfg.format)
    return "state.meta.json", _state_metadata(psi)


def cmd_dist(cfg: RunConfig, psi: WaveFunction, which: str) -> tuple:
    out = Path(cfg.out)
    summary = {"which": which}
    if which == "characteristic":
        cg = characteristic(psi, cfg.s)
        origin = cg.values[cg.u.size // 2, int(np.argmin(np.abs(cg.v)))]
        summary["origin_value"] = [float(origin.real), float(origin.imag)]
        ok = abs(origin - 1.0) < 1e-9 and bool(np.isfinite(cg.values).all())
        plio.save_characteristic(cg, out / "characteristic.json")
    else:
        if which == "wigner":
            dist = wigner(psi)
            density = as_position(psi).density()
            pos_err = float(np.max(np.abs(marginal(dist, MarginalAxis.OVER_P) - density)))
            summary["marginal_position_error"] = pos_err
            ok = pos_err < 1e-6
        elif which == "husimi":
            dist = husimi(psi, cfg.delta)
            ok = float(dist.values.min()) >= -1e-12
        else:
            raise ValueError(f"unknown distribution {which!r}")
        summary["normalization"] = dist.normalization()
        summary["min_value"] = float(dist.values.min())
        summary["negativity_flagged"] = bool(dist.values.min() < 0.0)
        ok = ok and abs(summary["normalization"] - 1.0) < 1e-6
        plio.save_distribution(dist, out / f"{which}.{cfg.format}", fmt=cfg.format)
    summary["pass"] = bool(ok)
    return f"{which}.summary.json", summary


def cmd_sample(cfg: RunConfig, psi: WaveFunction) -> tuple:
    out = Path(cfg.out)
    if cfg.shots > 0:
        # the bins must coarsen the Husimi reference below; known before any shot is drawn
        check_bins(cfg.bins, (psi.grid.n, psi.grid.n))
    result = sample_joint(psi, cfg.delta, cfg.shots, cfg.seed, bins=cfg.bins)
    plio.save_records(result.x, result.p, out / "records.csv")
    plio.save_distribution(result.histogram, out / f"histogram.{cfg.format}", fmt=cfg.format)
    report = {"shots": cfg.shots, "seed": cfg.seed, "rejected": result.rejected}
    if cfg.shots == 0:
        report["status"] = "SKIPPED"
    else:
        reference = coarsen(husimi(psi, cfg.delta), cfg.bins)
        sampled = result.histogram.values * result.histogram.weight
        tv = tv_distance(sampled, reference)
        bound = shot_noise_bound(reference, cfg.shots)
        threshold = max(0.02, 5.0 * bound)
        report.update(tv=tv, shot_noise_bound=bound, threshold=threshold)
        report["status"] = "PASS" if tv < threshold else "FAIL"
    return "sample.report.json", report


def cmd_pointer(cfg: RunConfig, psi: WaveFunction) -> tuple:
    spec = CouplingSpec(g=cfg.g, delta_device=cfg.delta_device)
    deviation = pointer_vs_direct(psi, spec)
    report = {
        "g": cfg.g,
        "delta_device": cfg.delta_device,
        "max_deviation": deviation,
        "status": "PASS" if deviation < 1e-5 else "FAIL",
    }
    return "pointer.report.json", report


def _verdict(path: Path, doc: dict) -> bool:
    """A report's verdict from its ``pass``, a JSON bool, and its ``status``,
    one of PASS, FAIL and SKIPPED, each where present; any other value is a
    ``ValueError`` that starts with ``path``."""
    passed, status = doc.get("pass", True), doc.get("status", "PASS")
    if type(passed) is not bool:
        raise ValueError(f"{path}: pass must be true or false, got {json.dumps(passed)}")
    if status not in ("PASS", "FAIL", "SKIPPED"):
        raise ValueError(f"{path}: status must be PASS, FAIL or SKIPPED, got {json.dumps(status)}")
    return passed and status != "FAIL"


def cmd_report(cfg: RunConfig) -> tuple:
    out = Path(cfg.out)
    docs = {
        path.name: plio.load_json(path)
        for path in sorted(out.glob("*.json"))
        if path.name.endswith((".report.json", ".summary.json"))
    }
    verdicts = {name: _verdict(out / name, doc) for name, doc in docs.items()}
    ok = bool(verdicts) and all(verdicts.values())  # a directory without sources fails
    print(plio.save_report(verdicts, ok, out), end="")
    return "report.json", {"sources": docs, "pass": ok}


def _add_common(sub: argparse.ArgumentParser) -> None:
    """--config, then one flag per RunConfig field: --grid-n sets grid_n."""
    sub.add_argument("--config", help="JSON config file; wins over flags on conflict")
    for name, kind in _FIELDS.items():
        sub.add_argument("--" + name.replace("_", "-"), type=_FLAG_TYPE[kind],
                         nargs=2 if kind == "tuple" else None,
                         choices=FORMATS if name == "format" else None,
                         help=_STATE_HELP if name == "state" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phaselab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("state", "dist", "sample", "pointer", "report"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "dist":
            sub.add_argument(
                "--which", choices=["wigner", "husimi", "characteristic"], default="husimi"
            )
    return parser


def _origin(exc: Exception) -> str:
    """The tag of an error line: "cli" for the CLI's own errors; for a physics
    error, the first phaselab module outside the CLI on its traceback (so
    ``husimi`` tags a ``ResolutionError`` that ``core.check_resolved`` raised
    for it as "phasespace"); "phaselab" otherwise."""
    if isinstance(exc, (StateSpecError, ConfigError)):
        return "cli"
    if isinstance(exc, _MODULE_ERRORS):
        tb = exc.__traceback__
        while tb is not None:
            module = tb.tb_frame.f_globals.get("__name__", "")
            if module.startswith("phaselab.") and module != __name__:
                return module.rpartition(".")[2]
            tb = tb.tb_next
    return "phaselab"


def main(argv=None) -> int:
    """The one run path: merge the config, make the output directory, build the
    state, run ``cmd_<name>``, write the report document it returns and exit
    with that document's ``_verdict``."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        # Looked up at call time, so that a wrapper set on the module attribute runs.
        command = globals()[f"cmd_{args.command}"]
        if args.command == "report":
            name, doc = command(cfg)
        else:
            extra = (args.which,) if args.command == "dist" else ()
            name, doc = command(cfg, _build_state(cfg), *extra)
        plio.save_json(doc, out / name)
        ok = _verdict(out / name, doc)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error [{_origin(exc)}]: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
