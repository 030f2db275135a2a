"""Config-driven Monte-Carlo sweeps over measurement-noise widths.

A trial is :func:`cvqec.syndrome.run_qec_cycle` without the pre-error
fidelity, its only dense step, which no CSV column holds: the frame trials,
``syndrome._OutcomeTable.trials``, read one mode's N grid points, so sweeps
are not bounded by N^M.  What depends on the code alone, its syndrome plan,
its stack decoder per decode-mode set and the analytic column's estimator
row, is built once per code object and shared by every call.  A sweep fixes
its error, so each :func:`run_sweep` call is one batch: it builds one outcome
table (the decoded lines and their masses) and runs every sigma's trials
through the table as one stream, sigma by sigma, drawn from one re-keyed
generator.  Per trial only the draws run in Python; each chunk of trials,
which may span sigmas, finds its outcomes with one ``searchsorted``, decodes
its noisy records as one stack while its noise-free ones index the decodes
of every outcome's exact record, and reads each (outcome, correction) pair's
fidelities, computed once per sweep.  Each column's per-sigma means and
standard deviations come from one reduction over the (sigmas, trials) array,
and the analytic column computes what its sigmas share (psi's shifted
copies) once.  The rows and CSV bytes are those of running every trial on a
table of its own and aggregating each sigma alone.

Trials are independent; each draws its random stream from (seed, sigma index,
trial index), the :func:`trial_rng` stream, which a sweep reads from one
generator re-keyed per trial (:func:`_trial_streams`), so sweep CSVs are
byte-identical across runs for a fixed config.
They are not guaranteed identical across BLAS thread counts
(OPENBLAS_NUM_THREADS and the like): norms, overlaps and the one-mode matrix
products run in BLAS, whose threaded reductions can move the last bit of a
fidelity.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .codes import BUILTIN_CODES, get_code
from .grid import GridSpec, kernel_variance
from .syndrome import (
    ErrorSpec,
    MeasurementModel,
    _code_plan,
    _OutcomeTable,
    _predicted_logical_fidelities,
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _config_int(name: str, value) -> int:
    """An integer config entry; a bool or a non-integral number is refused
    rather than truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _config_float(name: str, value) -> float:
    """A real-valued config entry; a bool or a string is refused rather than
    read as a number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


@dataclass
class SweepConfig:
    code: str
    grid_n: int
    sigmas: list[float]
    trials: int
    seed: int
    repetitions: int = 1
    logical: dict = field(default_factory=lambda: {"kind": "eigenstate", "index": None})
    error: dict = field(default_factory=lambda: {"kind": "displacement", "mode": 0, "shift": 2})
    decode_modes: list[int] | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.code, str) and self.code in BUILTIN_CODES):
            raise ConfigError(f"code must be one of {sorted(BUILTIN_CODES)}, got {self.code!r}")
        for name in ("grid_n", "trials", "seed", "repetitions"):
            setattr(self, name, _config_int(name, getattr(self, name)))
        if not isinstance(self.sigmas, (list, tuple)):
            raise ConfigError(f"sigmas must be a list, got {self.sigmas!r}")
        if not self.sigmas:
            raise ConfigError("sigmas must not be empty")
        self.sigmas = [_config_float("sigma", s) for s in self.sigmas]
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if any(not math.isfinite(s) or s < 0 for s in self.sigmas):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigmas}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.decode_modes is not None and not (
            isinstance(self.decode_modes, list)
            and all(type(m) is int for m in self.decode_modes)
        ):
            raise ConfigError(f"decode_modes must be a list of ints, got {self.decode_modes!r}")
        grid = GridSpec(self.grid_n, 1)
        try:
            error_from_config(self.error, grid.dx)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad error spec: {exc}") from exc
        logical_wavefunction(self.logical, grid)

    @staticmethod
    def from_json(text: str) -> "SweepConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from exc
        try:
            return SweepConfig(**payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc


#: The keys each kind of ``logical`` and ``error`` spec may carry.
_LOGICAL_KEYS = {
    "eigenstate": {"kind", "index"},
    "two_peak": {"kind", "separation"},
    "custom": {"kind", "amplitudes"},
}
_ERROR_KEYS = {
    "none": {"kind"},
    "displacement": {"kind", "mode", "shift", "kick"},
    "convolution": {"kind", "mode", "kernel_width"},
}


def _spec_kind(what: str, spec, default: str, keys: dict[str, set[str]]) -> str:
    """The kind of a ``logical`` or ``error`` spec; a non-object spec, an
    unknown kind or a key that kind does not read is refused."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind", default)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    unknown = sorted(set(spec) - keys[kind])
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown} for kind {kind!r}")
    return kind


def logical_wavefunction(spec: dict, grid: GridSpec) -> np.ndarray:
    """Build the logical input from its config description."""
    kind = _spec_kind("logical", spec, "eigenstate", _LOGICAL_KEYS)
    n = grid.n_points
    if kind == "eigenstate":
        index = spec.get("index")
        idx = grid.center_index if index is None else _config_int("logical index", index)
        if not 0 <= idx < n:
            raise ConfigError(f"logical index {idx} out of range")
        psi = np.zeros(n, dtype=np.complex128)
        psi[idx] = 1.0
        return psi
    if kind == "two_peak":
        sep = _config_int("separation", spec.get("separation", n // 4))
        c0 = grid.center_index
        psi = np.zeros(n, dtype=np.complex128)
        psi[(c0 - sep // 2) % n] = 1.0
        psi[(c0 + (sep + 1) // 2) % n] = 1.0
        return psi / np.linalg.norm(psi)
    # custom: one [re, im] pair per grid point
    pairs = spec.get("amplitudes")
    if not isinstance(pairs, list) or len(pairs) != n or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
    ):
        raise ConfigError(f"custom amplitudes must be a list of {n} [re, im] pairs")
    amps = np.array(
        [complex(_config_float("amplitude", re), _config_float("amplitude", im))
         for re, im in pairs],
        dtype=np.complex128,
    )
    norm = np.linalg.norm(amps)
    if not (math.isfinite(norm) and norm > 0):
        raise ConfigError(f"custom amplitudes must have a finite nonzero norm, got {norm}")
    return amps / norm


def error_from_config(spec: dict, dx: float = 1.0) -> ErrorSpec:
    """Shift is in grid points; kick and kernel width are in units of dx.  A
    kernel width without a finite nonzero square is refused as written."""
    kind = _spec_kind("error", spec, "none", _ERROR_KEYS)
    if kind == "none":
        return ErrorSpec.none()
    if kind == "displacement":
        return ErrorSpec.displacement(
            _config_int("error mode", spec.get("mode", 0)),
            _config_int("shift", spec.get("shift", 0)),
            _config_float("kick", spec.get("kick", 0.0)) * dx,
        )
    width = _config_float("kernel_width", spec["kernel_width"])
    mode = _config_int("error mode", spec.get("mode", 0))
    # checked as written, before the ErrorSpec holds it times dx
    if not 0 < width < math.inf:
        raise ConfigError(f"kernel width must be finite and > 0, got {width}")
    kernel_variance(width, dx)
    return ErrorSpec.convolution(mode, width * dx)


def _trial_key(seed: int, stream: int, trial: int) -> int:
    """The 128-bit Philox key of trial ``trial`` of stream ``stream``."""
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | ((stream & 0xFFFFFFFF) << 32) | (trial & 0xFFFFFFFF)


def trial_rng(seed: int, stream: int, trial: int) -> np.random.Generator:
    """Cheap counter-based per-trial stream; depends only on (seed, stream,
    trial)."""
    return np.random.Generator(np.random.Philox(counter=0, key=_trial_key(seed, stream, trial)))


def _trial_streams(
    seed: int, streams: int | Iterable[int], trials: Sequence[int]
) -> Iterator[np.random.Generator]:
    """``trial_rng(seed, stream, t)`` for each stream of ``streams`` (an int:
    that stream alone) and, within it, each t of ``trials``, bit for bit,
    from one generator whose Philox is re-keyed through ``.state`` (counter 0,
    empty buffer) for each trial; each yielded generator's stream lasts until
    the next is taken.  Re-keying skips building a Philox and its discarded
    OS-entropy seed sequence per trial, and only the key's low word changes
    in the one state dict that every re-keying reads."""
    bits = np.random.Philox(counter=0, key=0)
    rng = np.random.Generator(bits)
    zeros = [0, 0, 0, 0]
    key = [0, seed & 0xFFFFFFFFFFFFFFFF]  # _trial_key's (low, high) words
    state = {
        "bit_generator": "Philox", "state": {"counter": zeros, "key": key},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for stream in [streams] if isinstance(streams, numbers.Integral) else streams:
        for t in trials:
            key[0] = _trial_key(seed, stream, t) & 0xFFFFFFFFFFFFFFFF
            bits.state = state
            yield rng


@dataclass
class SweepRow:
    sigma: float
    repetitions: int
    trials: int
    mean_fidelity: float
    std_fidelity: float
    mean_logical_fidelity: float
    std_logical_fidelity: float
    analytic_logical_fidelity: float | None


def run_sweep(
    config: SweepConfig, trial_rows: list[tuple] | None = None
) -> list[SweepRow]:
    """Aggregate rows per sigma; when ``trial_rows`` is a list, also append one
    (sigma, repetitions, trial, fidelity, logical_fidelity) tuple per trial."""
    code = get_code(config.code)
    grid = GridSpec(config.grid_n, 1)
    psi = logical_wavefunction(config.logical, grid)
    error = error_from_config(config.error, grid.dx)
    table = _OutcomeTable(psi, code, error, _code_plan(code), grid, config.decode_modes)
    sigmas = [sigma_dx * grid.dx for sigma_dx in sorted(config.sigmas)]
    models = [MeasurementModel.gaussian(sigma, repetitions=config.repetitions)
              for sigma in sigmas]
    trials = config.trials
    # every sigma's trials, sigma by sigma, as one stream of (model, generator)
    per_trial = itertools.chain.from_iterable(itertools.repeat(m, trials) for m in models)
    streams = _trial_streams(config.seed, range(len(sigmas)), range(trials))
    full, logical = np.empty(len(sigmas) * trials), np.empty(len(sigmas) * trials)
    done = 0
    for batch in table.trials(per_trial, streams):
        stop = done + len(batch.post)
        full[done:stop], logical[done:stop] = batch.post, batch.logical
        done = stop
    full, logical = full.reshape(len(sigmas), trials), logical.reshape(len(sigmas), trials)
    if trial_rows is not None:
        trial_rows.extend((sigma, config.repetitions, t, full[si, t], logical[si, t])
                          for si, sigma in enumerate(sigmas) for t in range(trials))
    analytic: list[float | None] = [None] * len(sigmas)
    if code.name == "repetition3":
        error_mode = error.mode if error.kind != "none" else 0
        analytic = _predicted_logical_fidelities(psi, models, code, grid, error_mode)
    # each row's reduction has the bits of reducing that sigma's trials alone
    columns = (full.mean(axis=1), full.std(axis=1, ddof=0),
               logical.mean(axis=1), logical.std(axis=1, ddof=0))
    return [
        SweepRow(sigma=sigma, repetitions=config.repetitions, trials=trials,
                 mean_fidelity=float(mean), std_fidelity=float(std),
                 mean_logical_fidelity=float(logical_mean),
                 std_logical_fidelity=float(logical_std),
                 analytic_logical_fidelity=prediction)
        for sigma, mean, std, logical_mean, logical_std, prediction
        in zip(sigmas, *columns, analytic)
    ]


SWEEP_HEADER = (
    "sigma,repetitions,trials,mean_fidelity,std_fidelity,"
    "mean_logical_fidelity,std_logical_fidelity,analytic_logical_fidelity"
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        analytic = "" if r.analytic_logical_fidelity is None else _fmt(r.analytic_logical_fidelity)
        lines.append(
            ",".join(
                [
                    _fmt(r.sigma),
                    str(r.repetitions),
                    str(r.trials),
                    _fmt(r.mean_fidelity),
                    _fmt(r.std_fidelity),
                    _fmt(r.mean_logical_fidelity),
                    _fmt(r.std_logical_fidelity),
                    analytic,
                ]
            )
        )
    return "\n".join(lines) + "\n"


TRIALS_HEADER = "code,error_kind,error_mode,sigma,repetitions,trial,fidelity,logical_fidelity"


def trial_rows_to_csv(config: SweepConfig, trial_rows: Sequence[tuple]) -> str:
    """Per-trial stream: one row per (sigma, trial)."""
    error = error_from_config(config.error, GridSpec(config.grid_n, 1).dx)
    lines = [TRIALS_HEADER]
    for sigma, reps, trial, full, logical in trial_rows:
        lines.append(
            ",".join(
                [
                    config.code,
                    error.kind,
                    str(error.mode),
                    _fmt(sigma),
                    str(reps),
                    str(trial),
                    _fmt(full),
                    _fmt(logical),
                ]
            )
        )
    return "\n".join(lines) + "\n"
