"""Exact symplectic (Heisenberg) engine for the gate set.

Quadratures are ordered R = (x_0 .. x_{M-1}, p_0 .. p_{M-1}) project-wide.  The
matrix S attached to a circuit C is the displacement-covariance map

    C . D(d) = D(S d) . C        (equivalently  C^dag R C = S R),

so "displace then apply C" equals "apply C then displace by S d".  With the
grid engine's Fourier convention (F takes the position eigenstate at a to the
momentum eigenstate at a) the single-mode Fourier block is [[0, -1], [1, 0]]:
x -> p and p -> -x.  Sum(c, t) maps x_t -> x_t + x_c and p_c -> p_c - p_t.

Nullifiers of a code are the encoder images of the ancillas' position forms:
linear quadrature combinations with value exactly zero on every encoded state
(zero modulo the periodic grid length once discretized).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .gates import Circuit, Gate
from .grid import MAX_AMPLITUDES, GridError

if TYPE_CHECKING:  # pragma: no cover
    from .codes import CodeSpec

SV_RTOL = 1e-9  # relative singular-value tolerance for rank decisions
_SCAN_CHUNK = 5**4  # (code, combination) columns per measurement_basis array pass


class DecodeError(ValueError):
    """Syndrome decoding failed."""


class UnrecognizedSyndromeError(DecodeError):
    """No single-mode displacement reproduces the syndrome."""


class AmbiguousSyndromeError(DecodeError):
    """Two inequivalent single-mode displacements reproduce the syndrome."""


@dataclass(frozen=True)
class SymplecticRep:
    """2M x 2M real symplectic matrix acting on quadrature displacement vectors."""

    m_modes: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.m_modes
        if self.matrix.shape != (2 * m, 2 * m):
            raise ValueError(f"matrix shape {self.matrix.shape} != {(2 * m, 2 * m)}")

    def symplectic_defect(self) -> float:
        """max |S^T Omega S - Omega|; zero for a true symplectic matrix."""
        om = omega_matrix(self.m_modes)
        return float(np.max(np.abs(self.matrix.T @ om @ self.matrix - om)))


@dataclass(frozen=True)
class Nullifier:
    """Linear quadrature form f . R annihilating the codespace."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not any(abs(c) > 1e-12 for c in self.coeffs):
            raise ValueError("nullifier has all-zero coefficients")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)


@dataclass(frozen=True)
class DisplacementError:
    """Position shift e_x and momentum kick e_p on a single mode (grid units of x)."""

    mode: int
    e_x: float
    e_p: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.e_x) and np.isfinite(self.e_p)):
            raise ValueError("displacement components must be finite")

    def embed(self, m_modes: int) -> np.ndarray:
        d = np.zeros(2 * m_modes)
        d[self.mode] = self.e_x
        d[m_modes + self.mode] = self.e_p
        return d


def omega_matrix(m_modes: int) -> np.ndarray:
    """Standard block form [[0, I], [-I, 0]] on (x..., p...) ordering."""
    om = np.zeros((2 * m_modes, 2 * m_modes))
    om[:m_modes, m_modes:] = np.eye(m_modes)
    om[m_modes:, :m_modes] = -np.eye(m_modes)
    return om


def gate_symplectic(gate: Gate, m_modes: int) -> SymplecticRep:
    s = np.eye(2 * m_modes)
    if gate.kind in ("F", "Finv"):
        (m,) = gate.modes
        s[m, m] = 0.0
        s[m_modes + m, m_modes + m] = 0.0
        sign = 1.0 if gate.kind == "F" else -1.0
        s[m, m_modes + m] = -sign
        s[m_modes + m, m] = sign
    else:
        c, t = gate.modes
        sign = 1.0 if gate.kind == "Sum" else -1.0
        s[t, c] = sign
        s[m_modes + c, m_modes + t] = -sign
    return SymplecticRep(m_modes, s)


def _apply_gate_rows(
    s: np.ndarray, gate: Gate, m_modes: int, sign: np.ndarray | None = None
) -> None:
    """Left-multiply every tableau of the (B, 2M, 2M) stack ``s`` by the
    gate's symplectic matrix in place, as the row operations that matrix
    performs.  ``sign`` is a Sum-type gate's (B, 1) column, +1 where the
    tableau takes Sum and -1 where it takes SumInv; by default the gate's
    kind sets it for the whole stack."""
    if gate.kind in ("F", "Finv"):
        (k,) = gate.modes
        x, p = k, m_modes + k
        s[:, [x, p]] = s[:, [p, x]]  # then F negates the new x row, Finv the new p row
        s[:, x if gate.kind == "F" else p] *= -1
    else:
        c, t = gate.modes
        if sign is None:
            sign = 1 if gate.kind == "Sum" else -1
        s[:, t] += sign * s[:, c]
        s[:, m_modes + c] -= sign * s[:, m_modes + t]


def _tableau_stack(
    m_modes: int, gates: Sequence[Gate], signs: dict[int, np.ndarray] | None = None,
    batch: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The (B, 2M, 2M) integer (int64) stacks (S, Q) of B circuits from one
    walk over ``gates``: S the product of the gates' symplectic matrices,
    last gate leftmost, and Q the phase form of :func:`weyl_phase_form`.
    The B circuits share the gate list and differ only in the Sum-type gates
    that ``signs`` maps, by position, to a (B, 1) integer column of +1 (Sum)
    and -1 (SumInv).  Each F or Finv on mode k first adds -outer(x_k, p_k)
    of the rows it meets to Q."""
    signs = signs or {}
    s = np.repeat(np.eye(2 * m_modes, dtype=np.int64)[None], batch, axis=0)
    q = np.zeros_like(s)
    for i, g in enumerate(gates):
        if g.kind in ("F", "Finv"):
            (k,) = g.modes
            q -= s[:, k, :, None] * s[:, m_modes + k, None, :]
        _apply_gate_rows(s, g, m_modes, signs.get(i))
    return s, q


def circuit_symplectic(circuit: Circuit) -> SymplecticRep:
    """The product of the gates' symplectic matrices, last gate leftmost:
    the stack of one of :func:`_tableau_stack`, whose integers convert to
    exact floats with every zero +0.0, as the matrix product gives."""
    m = circuit.mode_count
    return SymplecticRep(m, _tableau_stack(m, circuit.gates)[0][0].astype(float))


def weyl_phase_form(circuit: Circuit) -> np.ndarray:
    """Integer form Q with C W(v) C^dag = omega^(v.Q.v) W(S v) on the N-point
    grid, for every N.

    W(v) is the product over modes of X^a_m Z^b_m for v = (a, b) in whole
    grid steps (X shifts by one point, Z kicks by dx), omega = exp(2 pi i / N)
    and S the circuit's symplectic matrix.  Sum gates permute these Weyl
    operators without a phase; F and Finv on mode m take X^a Z^b to
    omega^(-ab) times the rotated operator, so each adds -a_m b_m of the
    vector it meets.
    """
    return _tableau_stack(circuit.mode_count, circuit.gates)[1][0]


def encoder_images(circuit: Circuit) -> np.ndarray:
    """Rows of S^-1: row r expresses the encoder image U R_r U^dag of the input
    quadrature R_r as a form over the output quadratures.  S^-1 is the inverse
    circuit's tableau, integer and exact."""
    return circuit_symplectic(circuit.inverse()).matrix


def ancilla_images(encoder: Circuit, ancilla_modes: Sequence[int]) -> list[Nullifier]:
    """Encoder images of the position forms x_a of the given ancilla modes."""
    rows = encoder_images(encoder)
    return [Nullifier(tuple(rows[a, :])) for a in ancilla_modes]


def measurement_basis(nullifiers: Sequence[Nullifier], m_modes: int) -> list[Nullifier]:
    """Equivalent nullifier basis in which, per row, every mode carries x or p
    but never both, with all coefficients in {-1, 0, +1}.

    Such rows are diagonalizable by per-mode Fourier rotations and can be
    accumulated into a single ancilla with Sum gates, which is what the
    syndrome circuits need.  The search scans the integer combinations of the
    raw rows with coefficients in [-2, 2] whose leading nonzero coefficient
    is negative (one of each pair c, -c), in chunks of ``_SCAN_CHUNK``
    combinations (one chunk for up to four rows).  Friendly rows are
    sign-normalized (a flipped row keeps -0.0 zeros), ranked stably
    position-only first, then by L1 weight, then lexicographically, and
    picked greedily: a row stays when it is independent of the rows kept
    before it (:func:`_greedy_independent`), so of a row found twice the
    first occurrence is kept.  Raises ValueError if no spanning friendly
    basis exists, and GridError for more than eleven rows.

    This is the stack of one of :func:`_measurement_bases`, which scores a
    stack of codes with the same mode count in shared array passes.
    """
    k = len(nullifiers)
    raw = np.array([n.as_array() for n in nullifiers]).reshape(1, k, 2 * m_modes)
    (basis,) = _measurement_bases(raw, m_modes)
    if basis is None:
        raise ValueError("no measurement-friendly nullifier basis found")
    return [Nullifier(tuple(row)) for row in basis]


def _measurement_bases(raw: np.ndarray, m_modes: int) -> list[np.ndarray | None]:
    """Per code of the (B, K, 2M) stack ``raw``, the (K, 2M) basis that
    :func:`measurement_basis` picks, or None where no friendly rows span."""
    k = raw.shape[1]
    bases: list[np.ndarray | None] = []
    for rows in _friendly_rows(raw, m_modes):
        picked = _greedy_independent(rows, k)
        bases.append(rows[picked] if len(picked) == k else None)
    return bases


def _friendly_rows(raw: np.ndarray, m_modes: int) -> list[np.ndarray]:
    """Per code of the (B, K, 2M) stack ``raw``, the sign-normalized, ranked
    friendly combinations of its rows that :func:`measurement_basis` picks
    from.

    Only the C = 5^K // 2 combinations below the all-zero column are
    scanned, those whose leading nonzero coefficient is negative: c and -c
    give the same sign-normalized row, and of each pair this one comes first
    in column order.  Independent rows so give each friendly row once;
    dependent rows may repeat one, and since the ranking is stable the
    copies stay in column order, so the greedy pick keeps the first.  A pass
    is one ``(n 2M, K) @ (K, C)`` matmul over n whole codes, or over a slice
    of one code's C combinations when they alone exceed ``_SCAN_CHUNK``, so
    no pass holds more than ``_SCAN_CHUNK`` (code, combination) columns; a
    slice is a power of 5 columns wide, so its combinations are one table of
    low digits under one column of high digits, and a scan of one pass per
    group builds its combinations once.
    The rows of each group of codes are ranked by one ``lexsort`` whose most
    major key is the code's index.  A scan of more than ``MAX_AMPLITUDES``
    combinations (K >= 12) is refused with :class:`~cvqec.grid.GridError`.
    """
    b, k, two_m = raw.shape
    if k == 0:
        return [np.zeros((0, two_m))] * b
    c = 5**k // 2
    if c > MAX_AMPLITUDES:
        raise GridError(f"a basis scan of {k} nullifier rows needs 5^{k} // 2 = {c} "
                        f"combinations, over the {MAX_AMPLITUDES} budget")
    per_pass = max(1, _SCAN_CHUNK // c)
    # a slice of one code's combinations is 5^L columns from a multiple of
    # 5^L: its L low digits are those of 0 .. 5^L - 1, and its K - L high
    # digits are one number's; a scan of one pass per group has L = K
    low = k
    while c > _SCAN_CHUNK and low > 1 and 5**low > _SCAN_CHUNK:
        low -= 1
    width = min(c, 5**low)
    table = _base5_digits(np.arange(width), low)
    ranked: list[np.ndarray] = []
    for b0 in range(0, b, per_pass):
        group = raw[b0:b0 + per_pass]
        n = len(group)
        block = group.transpose(0, 2, 1).reshape(n * two_m, k)
        found, owner = [], []
        for start in range(0, c, width):
            combos = table[:, :c - start]
            if low < k:
                high = _base5_digits(start // width, k - low)
                combos = np.vstack([np.broadcast_to(high, (k - low, combos.shape[1])), combos])
            # one column per combination, so the per-row tests reduce over axis 1;
            # the sizes are taken in place, keeping one float array per pass
            cols = (block @ combos).reshape(n, two_m, -1)
            negative = cols < 0
            sizes = np.abs(cols, out=cols)
            nonzero = sizes > 1e-9
            sizes -= 1.0
            unit = np.all(~nonzero | (np.abs(sizes, out=sizes) < 1e-9), axis=1)
            mixed = np.any(nonzero[:, :m_modes] & nonzero[:, m_modes:], axis=1)
            keep = ~mixed & unit  # (n, combinations), in (code, combination) order
            nonzero = nonzero.transpose(0, 2, 1)[keep]
            negative = negative.transpose(0, 2, 1)[keep]
            # a kept entry is within 1e-9 of -1, 0 or +1, which it rounds to
            rows = np.where(nonzero, np.where(negative, -1.0, 1.0), 0.0)
            flip = negative[np.arange(len(rows)), np.argmax(nonzero, axis=1)]
            rows[flip] = -rows[flip]
            found.append(rows)
            owner.append(np.nonzero(keep)[0])
        rows, owner = np.concatenate(found), np.concatenate(owner)
        # lexsort keys run from minor to major
        weight = np.sum(np.abs(rows), axis=1)
        has_p = np.any(rows[:, m_modes:] != 0, axis=1)
        order = np.lexsort(tuple(rows[:, ::-1].T) + (weight, has_p, owner))
        counts = np.bincount(owner, minlength=n)
        ranked.extend(np.split(rows[order], np.cumsum(counts)[:-1]))
    return ranked


def _base5_digits(values: np.ndarray | int, k: int) -> np.ndarray:
    """The K base-5 digits of each of ``values``, most significant first,
    less 2, as a (K, len(values)) float array (one column for an int)."""
    return np.array(np.unravel_index(values, (5,) * k), dtype=float).reshape(k, -1) - 2.0


def _greedy_independent(rows: np.ndarray, k: int) -> list[int]:
    """Indices of the first rows, in order, each independent of those picked
    before it, up to ``k`` of them.

    The kept rows' directions stay orthonormal, and a row is kept when its
    residual after projecting them out has a norm above 1e-9.  For the
    {-1, 0, +1} rows of :func:`measurement_basis` the decision is exact: an
    independent integer row keeps a residual far above 1e-9 (at least the
    inverse square root of the kept rows' integer Gram determinant), a
    dependent one a rounding-level one, so this picks the rows that a
    ``matrix_rank(tol=1e-9)`` test per row picks.
    """
    picked: list[int] = []
    basis = np.zeros((k, rows.shape[1]))
    for i, row in enumerate(rows):
        kept = basis[:len(picked)]
        residual = row - (kept @ row) @ kept
        norm = np.sqrt(residual @ residual)
        if norm > 1e-9:
            basis[len(picked)] = residual / norm
            picked.append(i)
            if len(picked) == k:
                break
    return picked


def syndrome_matrix(nullifiers: Sequence[Nullifier]) -> np.ndarray:
    """Rows are nullifier coefficient vectors; the syndrome of a displacement d
    equals this matrix times d's 2M embedding."""
    return np.array([n.as_array() for n in nullifiers])


ERROR_CLASSES = ("full", "position", "momentum")


@dataclass
class CorrectabilityReport:
    """Outcome of the displacement-error distinguishability checks."""

    mode_count: int
    error_class: str
    mode_injective: list[bool]
    pair_min_singular: dict[tuple[int, int], float]
    pair_ok: dict[tuple[int, int], bool]
    failures: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(self.mode_injective) and all(self.pair_ok.values())

    def failing_pairs(self) -> list[tuple[int, int]]:
        return [p for p, ok in self.pair_ok.items() if not ok]

    def to_json(self) -> str:
        payload = {
            "mode_count": self.mode_count,
            "error_class": self.error_class,
            "all_pass": self.all_pass,
            "mode_injective": self.mode_injective,
            "pair_min_singular": {f"{j},{k}": v for (j, k), v in self.pair_min_singular.items()},
            "pair_ok": {f"{j},{k}": v for (j, k), v in self.pair_ok.items()},
            "failures": self.failures,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def check_correctability(code: "CodeSpec", error_class: str = "full") -> CorrectabilityReport:
    """Test syndrome distinguishability of single-mode displacement errors.

    Per mode: the syndrome map restricted to that mode's displacement space
    must be injective.  Per mode pair: the two image spaces must intersect only
    at zero (full singular-value rank of the stacked column block).  The error
    class restricts displacements to position shifts, momentum kicks, or both.
    The M mode blocks go through one stacked SVD and the M(M-1)/2 pair blocks
    through another.

    This is the stack of one of :func:`_correctability_reports`, which checks
    a stack of codes with the same mode count in those same two SVD calls.
    """
    (report,) = _correctability_reports(code.syndrome_matrix()[None], code.mode_count,
                                        error_class)
    return report


def _correctability_reports(
    syn: np.ndarray, m_modes: int, error_class: str = "full"
) -> list[CorrectabilityReport]:
    """:func:`check_correctability` of every code of the (B, K, 2M) stack of
    syndrome matrices ``syn``: all B M mode blocks go through one stacked SVD
    and all B M(M-1)/2 pair blocks through another."""
    if error_class not in ERROR_CLASSES:
        raise ValueError(f"error_class must be one of {ERROR_CLASSES}")
    if m_modes < 2:
        raise ValueError("a code needs at least two modes to check correctability")
    b, k = syn.shape[:2]
    modes = np.arange(m_modes)
    cols = {
        "full": np.stack([modes, m_modes + modes], axis=1),
        "position": modes[:, None],
        "momentum": m_modes + modes[:, None],
    }[error_class]
    pairs = list(itertools.combinations(range(m_modes), 2))
    j, t = np.array(pairs).T

    def blocks(columns: np.ndarray) -> np.ndarray:
        # syn[:, :, columns] is (codes, rows, blocks, columns); the SVD stacks
        # over the leading axis of the (codes x blocks, rows, columns) result
        picked = syn[:, :, columns].transpose(0, 2, 1, 3)
        return picked.reshape(b * len(columns), k, columns.shape[1])

    _, mode_ok = _min_needed_singular(blocks(cols))
    pair_min, pair_ok = _min_needed_singular(blocks(np.concatenate([cols[j], cols[t]], axis=1)))
    reports = []
    for injective, mins, oks in zip(mode_ok.reshape(b, -1).tolist(),
                                    pair_min.reshape(b, -1).tolist(),
                                    pair_ok.reshape(b, -1).tolist()):
        report = CorrectabilityReport(m_modes, error_class, injective, dict(zip(pairs, mins)),
                                      dict(zip(pairs, oks)))
        report.failures.extend(f"mode {m}: {error_class} displacements not injective"
                               for m, ok in enumerate(injective) if not ok)
        report.failures.extend(f"pair ({p[0]},{p[1]}): images intersect beyond zero"
                               for p, ok in zip(pairs, oks) if not ok)
        reports.append(report)
    return reports


def _min_needed_singular(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block of a stack: the smallest singular value full column rank
    needs (the k-th of k columns) and whether it clears SV_RTOL times the
    largest; blocks with fewer rows than columns give (0.0, False)."""
    sv = np.linalg.svd(blocks, compute_uv=False)
    want = blocks.shape[2]
    if sv.shape[1] < want:
        return np.zeros(len(blocks)), np.zeros(len(blocks), dtype=bool)
    min_sv = sv[:, want - 1]
    return min_sv, min_sv > SV_RTOL * np.maximum(sv[:, 0], 1e-300)


def decode_syndrome(
    code: "CodeSpec",
    syndrome: np.ndarray,
    forms: np.ndarray | None = None,
    modes: Sequence[int] | None = None,
    residual_tol: float | None = None,
) -> DisplacementError:
    """Infer the single-mode displacement whose syndrome matches the readings.

    ``forms`` defaults to the code's nullifier matrix; pass the measured-form
    matrix when the readout layout differs (the redundant pairwise-difference
    layout does).  ``modes`` restricts the candidate error locations.
    ``residual_tol`` is the acceptance threshold relative to |syndrome|
    (default 1e-6, the exact-readout regime); pass ``float("inf")`` to always
    accept the best-fitting mode, which is the right mode of use under noisy
    measurement models.

    A zero syndrome decodes to the zero displacement on mode 0 by convention.
    Ties between candidate modes are accepted when the competing corrections
    are equivalent (their difference has zero syndrome and zero action on the
    logical quadratures), in which case the lowest mode index wins; otherwise
    they raise :class:`AmbiguousSyndromeError`.

    This is a stack of one for the decoder sweeps run on every trial's
    record at once, so a syndrome decodes to the same bits alone or stacked,
    and the decoder is the code's own (:func:`_code_decoder`), built once.
    """
    syndrome = np.asarray(syndrome, dtype=float)
    if forms is None:
        forms = code.syndrome_matrix()
    if forms.shape != (len(syndrome), 2 * code.mode_count):
        raise ValueError("forms shape does not match syndrome length / mode count")
    return _code_decoder(code, forms, modes, residual_tol).decode(syndrome[None, :]).error(0)


def _code_decoder(
    code: "CodeSpec", forms: np.ndarray, modes: Sequence[int] | None,
    residual_tol: float | None,
) -> "_StackDecoder":
    """The :class:`_StackDecoder` of ``code`` for these forms (by value),
    candidate modes and tolerance, built once per code object and shared by
    :func:`decode_syndrome`, ``syndrome.correct`` and sweeps."""
    modes = None if modes is None else tuple(modes)
    key = ("decoder", forms.dtype.str, forms.shape, forms.tobytes(), modes, residual_tol)
    return code._derived(key, lambda: _StackDecoder(code, forms, modes, residual_tol))


#: ``_DecodedStack.failure`` values
_DECODED, _UNRECOGNIZED, _AMBIGUOUS = 0, 1, 2


@dataclass(frozen=True)
class _DecodedStack:
    """Per row of a decoded (T, K) stack: the inferred mode, its (e_x, e_p),
    the best residual, the failure (``_DECODED``, ``_UNRECOGNIZED`` or
    ``_AMBIGUOUS``) and, for an ambiguous row, the first harmful rival mode."""

    mode: np.ndarray
    shift: np.ndarray
    residual: np.ndarray
    failure: np.ndarray
    rival: np.ndarray

    def take(self, rows: np.ndarray) -> "_DecodedStack":
        return _DecodedStack(*(getattr(self, f.name)[rows] for f in fields(self)))

    def put(self, rows: Sequence[int], other: "_DecodedStack") -> None:
        """Overwrite ``rows`` with the rows of ``other``, in place."""
        for f in fields(self):
            getattr(self, f.name)[rows] = getattr(other, f.name)

    def error(self, t: int) -> DisplacementError:
        """Row ``t`` as :func:`decode_syndrome` returns or raises it."""
        if self.failure[t] == _UNRECOGNIZED:
            raise UnrecognizedSyndromeError(
                f"no single-mode displacement matches (best residual {self.residual[t]:.3e})"
            )
        if self.failure[t] == _AMBIGUOUS:
            raise AmbiguousSyndromeError(
                f"modes {self.mode[t]} and {self.rival[t]} both match the syndrome"
            )
        return DisplacementError(int(self.mode[t]), float(self.shift[t, 0]),
                                 float(self.shift[t, 1]))


class _StackDecoder:
    """:func:`decode_syndrome`'s rule for a (T, K) stack of syndromes.

    One ``np.linalg.pinv`` call on the (B, K, 2) stack of the B candidate
    modes' column blocks gives their pseudo-inverses and (B, K, K) residual
    operators I - A A^+, with lstsq's singular-value cutoff.  They reach the
    syndromes through elementwise multiply-adds over K, so row t has the same
    bits in any stack.  Candidates rank by (residual, mode).  The rows with a
    rival inside the tie window push their fits through the (B, M + 1, 2)
    stack of the modes' nullifier and logical columns at once: a rival is
    harmful when its action differs from the best fit's, and the first one
    makes the row ambiguous; when none is, the lowest tied mode wins.
    """

    def __init__(
        self, code: "CodeSpec", forms: np.ndarray, modes: Sequence[int] | None,
        residual_tol: float | None,
    ) -> None:
        m_modes = code.mode_count
        modes = list(range(m_modes)) if modes is None else list(modes)
        bad = [m for m in modes if not 0 <= m < m_modes]
        if bad:
            # a plain ValueError: correct() reports DecodeErrors as decode outcomes
            raise ValueError(f"decode mode(s) {bad} out of range [0, {m_modes})")
        if not modes:
            raise ValueError("decode modes must name at least one mode")
        self.residual_tol = 1e-6 if residual_tol is None else residual_tol
        # ascending, so the first of equal residuals is the lowest mode
        self.modes = np.sort(np.array(modes, dtype=np.int64))
        k = forms.shape[0]
        columns = np.stack([self.modes, m_modes + self.modes], axis=1)
        blocks = forms[:, columns]
        blocks = np.ascontiguousarray(blocks.transpose(1, 0, 2))  # (B, K, 2)
        pinv = np.linalg.pinv(blocks, np.finfo(float).eps * max(k, 2))
        # per k, one (B, 2 + K) slice: the pseudo-inverse's and the residual
        # operator's column k, so one pass gives (e_x, e_p) and the residual
        ops = np.concatenate([pinv, np.eye(k) - blocks @ pinv], axis=1)
        self.ops = np.ascontiguousarray(ops.transpose(2, 0, 1))
        if len(self.modes) > 1:
            syn = code.syndrome_matrix()
            self.split = len(syn)  # the action's nullifier part, then its logical part
            action = np.concatenate([syn, code.logical_forms])[:, columns]
            self.action = action.transpose(1, 0, 2)  # (B, M + 1, 2)
            self.action.flags.writeable = False
        # one decoder serves every decode of its code (_code_decoder)
        self.modes.flags.writeable = self.ops.flags.writeable = False

    def decode(self, syndromes: np.ndarray) -> _DecodedStack:
        s = np.asarray(syndromes, dtype=float)
        rows = np.arange(len(s))
        scale = np.sqrt(_row_sum_of_squares(s))
        fit = _apply_stack(self.ops, s)  # (T, B, 2 + K)
        if not np.isfinite(fit[:, :, :2]).all():
            # every candidate's fit is a DisplacementError, as in a decode alone
            raise ValueError("displacement components must be finite")
        res = np.sqrt(_row_sum_of_squares(fit[:, :, 2:]))  # (T, B)
        best = res.argmin(axis=1)
        mode, shift, best_res = self.modes[best], fit[rows, best, :2], res[rows, best]
        zero = scale < 1e-12
        # zero rows decode to zero below; a scale of 1 keeps inf * 0 out
        failure = np.where(best_res > self.residual_tol * np.where(zero, 1.0, scale),
                           _UNRECOGNIZED, _DECODED)
        rival = np.full(len(s), -1, dtype=np.int64)
        if len(self.modes) > 1:
            window = best_res + 1e-9 * np.maximum(scale, 1.0)
            tied = (res <= window[:, None]) & (self.modes != mode[:, None])
            t = np.flatnonzero(tied.any(axis=1) & ~zero & (failure == _DECODED))
            sol = fit[t, :, None, :2]  # (R, B, 1, 2)
            act = self.action[..., 0] * sol[..., 0] + self.action[..., 1] * sol[..., 1]
            act -= act[np.arange(len(t)), best[t], None]
            harmless = ((np.sqrt(_row_sum_of_squares(act[..., :self.split])) < 1e-9)
                        & (np.sqrt(_row_sum_of_squares(act[..., self.split:])) < 1e-9))
            harmful = tied[t] & ~harmless
            ranked = np.argsort(res[t], axis=1, kind="stable")  # (residual, mode) order
            first = np.take_along_axis(harmful, ranked, axis=1).argmax(axis=1)
            bad = harmful.any(axis=1)
            rival[t[bad]], failure[t[bad]] = self.modes[ranked[bad, first[bad]]], _AMBIGUOUS
            # every rival is an equivalent correction: the lowest mode wins
            # (the modes ascend), whatever the rounding ranked first
            t = t[~bad]
            low = (tied[t] | (self.modes == mode[t, None])).argmax(axis=1)
            mode[t], shift[t] = self.modes[low], fit[t, low, :2]
        if zero.any():
            mode[zero], shift[zero] = 0, 0.0
        return _DecodedStack(mode, shift, best_res, failure, rival)


def _row_sum_of_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, added in index order."""
    out = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * a[..., k]
    return out


def _apply_stack(ops: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(T, B, I): operator b of the (K, B, I) stack ``ops`` applied to each
    row of the (T, K) stack ``s``, summed over K in index order."""
    out = ops[0] * s[:, 0, None, None]
    for k in range(1, s.shape[1]):
        out += ops[k] * s[:, k, None, None]
    return out
