"""Gate set and circuit application for the grid engine.

Two primitive gates and their inverses act on the discretized modes:

* ``F`` (Fourier), the active rotation taking position to momentum eigenstates.
  On the grid it is the centered transform U[j, k] = (dx / sqrt(pi)) *
  exp(2i * x_j * x_k), applied as that N x N kernel (``grid.fourier_matrix``)
  along one tensor axis, with no FFT; ``Finv`` applies its complex conjugate.
  It satisfies F^4 = I and F^2 = per-mode parity (j -> (N - j) mod N) to
  rounding (about 1e-15).
* ``Sum`` (generalized XOR), adding the control's position into the target:
  basis index pair (j, k) -> (j, (k + j - N/2) mod N), i.e. x_t -> x_t + x_c
  with periodic wraparound.  ``SumInv`` is the inverse permutation.

A Sum on a tensor of at most 2**18 amplitudes gathers through a flat index
array cached per (shape, control, target, inverse): such tensors re-run the
same few gates many times (the dense oracle stages up to shor9 at N=4,
4**9 = 2**18, and the grid check ``transpile.parity_covariant``), and 32 such
arrays stay under 64 MB.  The cache pays: on a 32**3 tensor a warm cached
gather took 55 us against 385 us for ``np.take_along_axis`` (timeit, one CPU
of a 2-vCPU machine).  Larger tensors (a braunstein5 encode at
N=16, 2**20 amplitudes) run a gate about once per process: they gather with
``np.take_along_axis`` on a five-axis view from an N x N plane, uncached.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .grid import GridError, MultiModeState, apply_mode_matrix, fourier_matrix

GATE_KINDS = ("F", "Finv", "Sum", "SumInv")

_INVERSE = {"F": "Finv", "Finv": "F", "Sum": "SumInv", "SumInv": "Sum"}


class CircuitError(ValueError):
    """Malformed gate or circuit."""


@dataclass(frozen=True)
class Gate:
    kind: str
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        want = 1 if self.kind in ("F", "Finv") else 2
        if len(self.modes) != want:
            raise CircuitError(f"{self.kind} takes {want} mode(s), got {self.modes}")
        if want == 2 and self.modes[0] == self.modes[1]:
            raise CircuitError("control and target must differ")
        if any(m < 0 for m in self.modes):
            raise CircuitError("negative mode index")

    def inverse(self) -> "Gate":
        return Gate(_INVERSE[self.kind], self.modes)


def fourier(mode: int) -> Gate:
    return Gate("F", (mode,))


def fourier_inv(mode: int) -> Gate:
    return Gate("Finv", (mode,))


def sum_gate(control: int, target: int) -> Gate:
    return Gate("Sum", (control, target))


def sum_inv(control: int, target: int) -> Gate:
    return Gate("SumInv", (control, target))


@dataclass(frozen=True)
class Circuit:
    mode_count: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise CircuitError(f"mode_count must be >= 1, got {self.mode_count}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.modes) >= self.mode_count:
                raise CircuitError(f"gate {g} exceeds mode count {self.mode_count}")

    def inverse(self) -> "Circuit":
        return Circuit(self.mode_count, tuple(g.inverse() for g in reversed(self.gates)))

    def gate_counts(self) -> dict[str, int]:
        counts = {k: 0 for k in GATE_KINDS}
        for g in self.gates:
            counts[g.kind] += 1
        return counts

    def sum_type_count(self) -> int:
        c = self.gate_counts()
        return c["Sum"] + c["SumInv"]

    def to_json(self) -> str:
        payload = {
            "mode_count": self.mode_count,
            "gates": [{"type": g.kind, "modes": list(g.modes)} for g in self.gates],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "Circuit":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitError(f"invalid circuit JSON: {exc}") from exc
        try:
            gates = tuple(
                Gate(entry["type"], tuple(int(m) for m in entry["modes"]))
                for entry in payload["gates"]
            )
            return Circuit(int(payload["mode_count"]), gates)
        except (KeyError, TypeError) as exc:
            raise CircuitError(f"invalid circuit JSON structure: {exc}") from exc


#: Tensors up to this many amplitudes reuse a cached flat gather per Sum.
_SUM_GATHER_MAX_SIZE = 2**18


def _sum_source(jc: np.ndarray, jt: np.ndarray, n: int, inverse: bool) -> np.ndarray:
    """Target index each output amplitude reads: jt -/+ jc +/- N/2 (mod N)."""
    c0 = n // 2
    return (jt + jc - c0) % n if inverse else (jt - jc + c0) % n


@functools.lru_cache(maxsize=32)
def _sum_gather(shape: tuple[int, ...], control: int, target: int, inverse: bool) -> np.ndarray:
    """Read-only flat gather indices of a Sum on a tensor of ``shape``."""
    grids = list(np.indices(shape, sparse=True))
    grids[target] = _sum_source(grids[control], grids[target], shape[target], inverse)
    perm = np.ravel_multi_index(np.broadcast_arrays(*grids), shape).reshape(-1)
    perm.flags.writeable = False
    return perm


def _apply_sum(tensor: np.ndarray, control: int, target: int, inverse: bool) -> np.ndarray:
    if tensor.size <= _SUM_GATHER_MAX_SIZE:
        perm = _sum_gather(tensor.shape, control, target, inverse)
        return tensor.reshape(-1)[perm].reshape(tensor.shape)
    shape, n = tensor.shape, tensor.shape[target]
    lo, hi = sorted((control, target))
    view = tensor.reshape(math.prod(shape[:lo]), n, math.prod(shape[lo + 1:hi]), n, -1)
    j1, j3 = np.indices((n, n), sparse=True)
    jc, jt = (j3, j1) if target < control else (j1, j3)
    src = _sum_source(jc, jt, n, inverse)[None, :, None, :, None]
    return np.take_along_axis(view, src, axis=1 if lo == target else 3).reshape(shape)


def apply_gate(state: MultiModeState, gate: Gate) -> MultiModeState:
    if max(gate.modes) >= state.grid.mode_count:
        raise CircuitError(f"gate {gate} exceeds state mode count")
    if gate.kind in ("F", "Finv"):
        u = fourier_matrix(state.grid.n_points)
        out = apply_mode_matrix(state.tensor, gate.modes[0], u if gate.kind == "F" else u.conj())
    else:
        out = _apply_sum(state.tensor, *gate.modes, inverse=gate.kind == "SumInv")
    return MultiModeState(state.grid, np.ascontiguousarray(out))


def apply_circuit(state: MultiModeState, circuit: Circuit | Iterable[Gate]) -> MultiModeState:
    if isinstance(circuit, Circuit):
        if circuit.mode_count != state.grid.mode_count:
            raise GridError(
                f"circuit has {circuit.mode_count} modes, state has {state.grid.mode_count}"
            )
        gates: Iterable[Gate] = circuit.gates
    else:
        gates = circuit
    for g in gates:
        state = apply_gate(state, g)
    return state
