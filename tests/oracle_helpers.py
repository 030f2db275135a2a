"""Independent dense-matrix oracles and reference scans used by the tests.

Everything here is built from the defining formulas directly (explicit N x N
and N^M x N^M matrices, brute-force partial traces, one-at-a-time loops),
never from the package's fast paths, so agreement is a real two-route check.
"""

import itertools
import math

import numpy as np


def dx_of(n: int) -> float:
    return np.sqrt(np.pi / n)


def x_values(n: int) -> np.ndarray:
    return (np.arange(n) - n // 2) * dx_of(n)


def dense_fourier(n: int) -> np.ndarray:
    """U[j, k] = (dx / sqrt(pi)) * exp(2i x_j x_k), the defining kernel."""
    x = x_values(n)
    return (dx_of(n) / np.sqrt(np.pi)) * np.exp(2j * np.outer(x, x))


def phase_table_fourier(n: int) -> np.ndarray:
    """The Fourier kernel from its integer phase table, one complex
    exponential per entry: exp(2 pi i ((j - N/2)(k - N/2) mod N) / N) / sqrt(N)."""
    j = np.arange(n) - n // 2
    return np.exp((2j * np.pi / n) * (np.outer(j, j) % n)) / math.sqrt(n)


def dense_sum(n: int, inverse: bool = False) -> np.ndarray:
    """Permutation matrix for (j, k) -> (j, (k + j - N/2) mod N) on two modes."""
    c0 = n // 2
    u = np.zeros((n * n, n * n))
    for j in range(n):
        for k in range(n):
            k2 = (k + j - c0) % n if not inverse else (k - j + c0) % n
            u[j * n + k2, j * n + k] = 1.0
    return u


def dense_convolution(n: int, kernel: np.ndarray) -> np.ndarray:
    """N x N matrix of |x> -> sum_y K(y) |x - y>, with kernel[k] = K at the
    displacement y = (k - N/2) grid points, built entry by entry."""
    c0 = n // 2
    u = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for k in range(n):
            u[(x - (k - c0)) % n, x] += kernel[k]
    return u


def dense_weyl(n: int, a: int, b: int) -> np.ndarray:
    """N x N matrix of X^a Z^b: a kick by b dx (phase exp(2i b dx x_j)), then
    a shift by a points, built entry by entry."""
    u = np.zeros((n, n), dtype=complex)
    x = x_values(n)
    for j in range(n):
        u[(j + a) % n, j] = np.exp(2j * b * dx_of(n) * x[j])
    return u


def dense_on_mode(u1: np.ndarray, mode: int, m: int) -> np.ndarray:
    """Full N^M x N^M matrix of the one-mode operator u1 on ``mode``, by kron."""
    n = u1.shape[0]
    ops = [np.eye(n, dtype=complex)] * m
    ops[mode] = u1
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def dense_gate(kind: str, modes: tuple[int, ...], m: int, n: int) -> np.ndarray:
    """Full N^M x N^M matrix of one gate by explicit kron products."""
    if kind in ("F", "Finv"):
        u1 = dense_fourier(n)
        if kind == "Finv":
            u1 = u1.conj().T
        return dense_on_mode(u1, modes[0], m)
    # Sum acts on a (control, target) pair; permute axes around the 2-mode kernel
    c, t = modes
    u2 = dense_sum(n, inverse=(kind == "SumInv")).astype(complex)
    dim = n**m
    out = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        digits = np.unravel_index(idx, (n,) * m)
        col = digits[c] * n + digits[t]
        rows = np.nonzero(u2[:, col])[0]
        for row in rows:
            jd = list(digits)
            jd[c], jd[t] = divmod(int(row), n)
            out[np.ravel_multi_index(jd, (n,) * m), idx] = u2[row, col]
    return out


def dense_partial_trace(vec: np.ndarray, m: int, n: int, keep: list[int]) -> np.ndarray:
    """Brute-force reduced density matrix by direct summation."""
    tensor = vec.reshape((n,) * m)
    d = n ** len(keep)
    rho = np.zeros((d, d), dtype=complex)
    rest = [ax for ax in range(m) if ax not in keep]
    for i in np.ndindex(*(n,) * len(keep)):
        for j in np.ndindex(*(n,) * len(keep)):
            total = 0.0 + 0.0j
            for r in np.ndindex(*(n,) * len(rest)):
                idx_i = [0] * m
                idx_j = [0] * m
                for ax, v in zip(keep, i):
                    idx_i[ax] = v
                for ax, v in zip(keep, j):
                    idx_j[ax] = v
                for ax, v in zip(rest, r):
                    idx_i[ax] = v
                    idx_j[ax] = v
                total += tensor[tuple(idx_i)] * np.conj(tensor[tuple(idx_j)])
            rho[
                np.ravel_multi_index(i, (n,) * len(keep)) if keep else 0,
                np.ravel_multi_index(j, (n,) * len(keep)) if keep else 0,
            ] = total
    return rho


def random_state(n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n,) * m) + 1j * rng.normal(size=(n,) * m)
    return v / np.linalg.norm(v)


def scan_measurement_basis(raw_rows: np.ndarray, m_modes: int) -> np.ndarray:
    """Reference for ``symplectic.measurement_basis``: the one-combination-at-a-
    time scan over coefficients in [-2, 2]^K with a pairwise dedupe and a
    Python sort.  Returns the picked rows as a (K, 2M) array, signed zeros
    included; raises ValueError when no friendly basis spans the rows."""
    raw = np.asarray(raw_rows, dtype=float)
    k = raw.shape[0]
    candidates = []
    for combo in itertools.product(range(-2, 3), repeat=k):
        if all(c == 0 for c in combo):
            continue
        row = np.asarray(combo, dtype=float) @ raw
        row = np.where(np.abs(row) < 1e-9, 0.0, row)
        big = np.abs(row) > 1e-9
        if np.any(big[:m_modes] & big[m_modes:]):
            continue
        if not np.all(np.abs(np.abs(row[big]) - 1.0) < 1e-9):
            continue
        if row[np.argmax(big)] < 0:
            row = -row
        candidates.append(np.round(row))
    uniq: list[np.ndarray] = []
    for row in candidates:
        if not any(np.array_equal(row, u) for u in uniq):
            uniq.append(row)
    uniq.sort(
        key=lambda r: (
            bool(np.any(np.abs(r[m_modes:]) > 0)),
            float(np.sum(np.abs(r))),
            tuple(r),
        )
    )
    picked: list[np.ndarray] = []
    for row in uniq:
        if np.linalg.matrix_rank(np.array(picked + [row]), tol=1e-9) == len(picked) + 1:
            picked.append(row)
        if len(picked) == k:
            break
    if len(picked) != k:
        raise ValueError("no measurement-friendly nullifier basis found")
    return np.array(picked).reshape(k, 2 * m_modes)


def gate_product_symplectic(circuit) -> np.ndarray:
    """Reference for ``symplectic.circuit_symplectic``: the product of the
    gates' 2M x 2M matrices, last gate leftmost, one matmul per gate."""
    from cvqec import gate_symplectic

    m = circuit.mode_count
    s = np.eye(2 * m)
    for g in circuit.gates:
        s = gate_symplectic(g, m).matrix @ s
    return s


def gate_product_phase_form(circuit) -> np.ndarray:
    """Reference for ``symplectic.weyl_phase_form``: each F or Finv on mode k
    adds -S[k] (x) S[M + k] of the integer tableau S it meets, and S advances
    by one integer matrix product per gate."""
    from cvqec import gate_symplectic

    m = circuit.mode_count
    s = np.eye(2 * m, dtype=np.int64)
    q = np.zeros((2 * m, 2 * m), dtype=np.int64)
    for g in circuit.gates:
        if g.kind in ("F", "Finv"):
            (k,) = g.modes
            q -= np.outer(s[k], s[m + k])
        s = np.rint(gate_symplectic(g, m).matrix).astype(np.int64) @ s
    return q


def blockwise_correctability(syn: np.ndarray, m_modes: int, error_class: str):
    """Reference for ``symplectic.check_correctability``: one SVD per mode
    block and one per mode-pair block.  Returns (mode_injective,
    pair_min_singular, pair_ok, failures) as the report holds them."""
    from cvqec.symplectic import SV_RTOL

    cols_of = {
        "full": lambda m: [m, m_modes + m],
        "position": lambda m: [m],
        "momentum": lambda m: [m_modes + m],
    }[error_class]

    def needed(block):
        sv = np.linalg.svd(block, compute_uv=False)
        want = block.shape[1]
        if len(sv) < want:  # fewer rows than columns
            return 0.0, False
        min_sv = float(sv[want - 1])
        return min_sv, min_sv > SV_RTOL * max(float(sv[0]), 1e-300)

    injective, pair_min, pair_ok, failures = [], {}, {}, []
    for m in range(m_modes):
        injective.append(needed(syn[:, cols_of(m)])[1])
        if not injective[-1]:
            failures.append(f"mode {m}: {error_class} displacements not injective")
    for j, k in itertools.combinations(range(m_modes), 2):
        pair_min[(j, k)], pair_ok[(j, k)] = needed(syn[:, cols_of(j) + cols_of(k)])
        if not pair_ok[(j, k)]:
            failures.append(f"pair ({j},{k}): images intersect beyond zero")
    return injective, pair_min, pair_ok, failures


def circuit_from_steps(m: int, steps):
    """A circuit on ``m`` modes from (kind, first, offset) draws: one-mode
    gates act on ``first mod m``; two-mode gates pair it with a distinct
    mode chosen by ``offset``."""
    from cvqec import Circuit, Gate

    gates = []
    for kind, first, offset in steps:
        first %= m
        other = (first + 1 + (offset - 1) % (m - 1)) % m
        gates.append(Gate(kind, (first,) if kind in ("F", "Finv") else (first, other)))
    return Circuit(m, tuple(gates))


def trial_fields(trial) -> tuple:
    """A frame trial's (post, logical, inferred error, record, applied,
    decode outcome) with the record's arrays as bytes, so ``==`` compares
    every field exactly."""
    post, logical, inferred, record, applied, outcome = trial
    return (post, logical, inferred, record.true_values.tobytes(),
            record.reported_values.tobytes(), record.nullifier_ids, record.forms.tobytes(),
            applied, outcome)


def lstsq_decode(code, syndrome, forms=None, modes=None, residual_tol=None):
    """Reference for ``symplectic.decode_syndrome``: one ``np.linalg.lstsq``
    per candidate mode, ranked by (residual, mode), then the tie window and
    the harmless check in that order; when every tied rival is harmless the
    lowest mode among them and the best wins.  Returns the DisplacementError
    or raises the DecodeError the decoder raises."""
    from cvqec.symplectic import (
        AmbiguousSyndromeError,
        DisplacementError,
        UnrecognizedSyndromeError,
    )

    syndrome = np.asarray(syndrome, dtype=float)
    if forms is None:
        forms = code.syndrome_matrix()
    m_modes = code.mode_count
    modes = range(m_modes) if modes is None else list(modes)
    if residual_tol is None:
        residual_tol = 1e-6
    scale = float(np.linalg.norm(syndrome))
    if scale < 1e-12:
        return DisplacementError(0, 0.0, 0.0)
    matches = []
    for m in modes:
        block = forms[:, [m, m_modes + m]]
        sol, *_ = np.linalg.lstsq(block, syndrome, rcond=None)
        residual = float(np.linalg.norm(block @ sol - syndrome))
        matches.append((residual, DisplacementError(int(m), float(sol[0]), float(sol[1]))))
    matches.sort(key=lambda t: (t[0], t[1].mode))
    best_res, best = matches[0]
    if best_res > residual_tol * scale:
        raise UnrecognizedSyndromeError(
            f"no single-mode displacement matches (best residual {best_res:.3e})"
        )
    tie_window = 1e-9 * max(scale, 1.0)
    syn = code.syndrome_matrix()
    equivalent = [best]
    for res, cand in matches[1:]:
        if res > best_res + tie_window or cand.mode == best.mode:
            continue
        delta = cand.embed(m_modes) - best.embed(m_modes)
        harmless = (
            np.linalg.norm(syn @ delta) < 1e-9
            and np.linalg.norm(code.logical_forms @ delta) < 1e-9
        )
        if not harmless:
            raise AmbiguousSyndromeError(
                f"modes {best.mode} and {cand.mode} both match the syndrome"
            )
        equivalent.append(cand)
    # equivalent corrections all: the lowest mode wins
    return min(equivalent, key=lambda e: e.mode)


def sample_noise(model, rng: np.random.Generator) -> float:
    """Reference for ``syndrome._readout_noise``: one reported-minus-true
    offset of the measurement model, already averaged over repetitions, one
    draw at a time."""
    if model.kind == "exact":
        return 0.0
    draws = np.empty(model.repetitions)
    for i in range(model.repetitions):
        if model.kind == "gaussian":
            draws[i] = rng.normal(0.0, model.sigma) if model.sigma > 0 else 0.0
        else:
            draws[i] = float(rng.choice(model.offsets, p=model.probabilities))
    return float(draws.mean())


def looped_residual_shift_distribution(gain, sigma, repetitions, n, dx):
    """Reference for ``syndrome.residual_shift_distribution`` under a
    Gaussian model whose estimator row has norm ``gain``: for each residual
    shift k, the rounding bin's mass (erf((kk + 1/2) s) - erf((kk - 1/2) s)) / 2
    summed in Python over the five wraps kk = k + w N, w = -2..2, two
    ``math.erf`` calls per bin and wrap, then normalized."""
    c0 = n // 2
    out = np.zeros(n)
    sigma_eff = sigma * gain / math.sqrt(repetitions)
    if sigma_eff == 0:
        out[c0] = 1.0
        return out
    edges_scale = dx / (sigma_eff * math.sqrt(2.0))
    for k in range(-c0, n - c0):
        p = 0.0
        for wrap in (-2, -1, 0, 1, 2):  # fold tails of the periodic axis
            kk = k + wrap * n
            p += 0.5 * (
                math.erf((kk + 0.5) * edges_scale) - math.erf((kk - 0.5) * edges_scale)
            )
        out[(k + c0) % n] = p
    return out / out.sum()


def rolled_decoherence_prediction(psi, p):
    """Reference for ``syndrome.decoherence_prediction``'s sum: one
    ``np.roll`` and one ``np.outer`` per nonzero entry k of the residual shift
    distribution ``p``, accumulated in k order."""
    n = len(psi)
    c0 = n // 2
    rho = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        if p[k] == 0:
            continue
        shifted = np.roll(psi, -(k - c0))
        rho += p[k] * np.outer(shifted, shifted.conj())
    return rho


def rank_greedy_pick(rows: np.ndarray, k: int) -> list[int]:
    """Reference for ``symplectic._greedy_independent``: walk the rows in
    order and keep one when ``np.linalg.matrix_rank(tol=1e-9)`` of the kept
    rows plus it grows, up to ``k`` rows."""
    picked: list[int] = []
    for i, row in enumerate(rows):
        trial = [rows[j] for j in picked] + [row]
        if np.linalg.matrix_rank(np.array(trial), tol=1e-9) == len(trial):
            picked.append(i)
        if len(picked) == k:
            break
    return picked


def displaced_line_fidelities(table, t, mode=None, step_x=0, step_p=0):
    """Reference for ``syndrome._OutcomeTable._corrected_fidelities``: the
    normalized logical line of outcome ``t`` as a one-mode ``MultiModeState``,
    displaced by ``apply_displacement`` along the correction's image in the
    decoded frame, and its two overlaps (the post-correction fidelity only
    when the corrected ancillae are back at zero)."""
    from cvqec import GridSpec, MultiModeState, apply_displacement
    from cvqec.grid import _renormalized

    code, grid, ancillae = table.code, table.grid, table.tuples[t]
    lm, m, n = code.logical_mode, code.mode_count, grid.n_points
    logical = MultiModeState(GridSpec(n, 1), _renormalized(table.lines[t]))
    if mode is not None:
        d = table.plan.decoded_shift[:, [mode, m + mode]] @ np.array([step_x, step_p])
        logical = apply_displacement(logical, 0, d[lm], d[m + lm] * grid.dx)
        ancillae = np.mod(ancillae + d[list(code.ancilla_modes)], n)
    post_fid = 0.0
    if np.all(ancillae == grid.center_index):
        post_fid = abs(np.vdot(table.psi_hat, logical.tensor)) ** 2
    return float(post_fid), float(abs(np.vdot(table.psi, logical.tensor)) ** 2)
