"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and case counts are fixed here, not configurable.
"""

import json
import os
import time

import numpy as np
import pytest

from cvqec import (
    Circuit,
    ErrorSpec,
    FIVE_QUBIT_SIGN_ASSIGNMENT,
    GridSpec,
    MeasurementModel,
    MultiModeState,
    apply_displacement,
    apply_error,
    apply_gate,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    build_syndrome_circuit,
    builtin_five_qubit_circuit,
    check_correctability,
    circuit_symplectic,
    correct,
    decoded_logical_density,
    decoherence_prediction,
    direct_encoded_state,
    emit_cv_circuit,
    encode,
    enumerate_valid_assignments,
    extract_syndrome,
    fidelity,
    fourier,
    fourier_inv,
    omega_matrix,
    run_qec_cycle,
    sum_gate,
    sum_inv,
    trace_distance,
)
from cvqec.codes import BASELINE_SUM_GATE_COUNT
from cvqec.experiments import trial_rng


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))


def random_state(n, m, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n,) * m) + 1j * rng.normal(size=(n,) * m)
    return MultiModeState(GridSpec(n, m), v / np.linalg.norm(v))


def eigenstate(n, j):
    psi = np.zeros(n, dtype=np.complex128)
    psi[j] = 1.0
    return psi


def test_criterion_1_gate_algebra():
    t0 = time.time()
    worst = 0.0
    for n in (8, 16, 32):
        st = random_state(n, 1, n)
        # F^4 = identity
        out = st
        for _ in range(4):
            out = apply_gate(out, fourier(0))
        worst = max(worst, float(np.max(np.abs(out.amplitudes - st.amplitudes))))
        # F^2 = parity permutation, exact on basis vectors
        for j in range(n):
            basis = np.zeros(n, dtype=complex)
            basis[j] = 1.0
            two = apply_gate(apply_gate(MultiModeState(GridSpec(n, 1), basis.copy()),
                                        fourier(0)), fourier(0))
            expected = np.zeros(n, dtype=complex)
            expected[(n - j) % n] = 1.0
            worst = max(worst, float(np.max(np.abs(two.amplitudes - expected))))
        # gate / inverse roundtrips
        st2 = random_state(n, 2, n + 1)
        for gate in (fourier(0), fourier_inv(1), sum_gate(0, 1), sum_inv(1, 0)):
            back = apply_gate(apply_gate(st2, gate), gate.inverse())
            worst = max(worst, float(np.max(np.abs(back.amplitudes - st2.amplitudes))))
        # symplectic identity for random circuits
        rng = np.random.default_rng(n)
        gates = []
        for _ in range(12):
            r = rng.integers(0, 4)
            if r < 2:
                gates.append(fourier(int(rng.integers(3))) if r == 0
                             else fourier_inv(int(rng.integers(3))))
            else:
                c, t = rng.choice(3, size=2, replace=False)
                gates.append(sum_gate(int(c), int(t)) if r == 2
                             else sum_inv(int(c), int(t)))
        s = circuit_symplectic(Circuit(3, tuple(gates))).matrix
        om = omega_matrix(3)
        worst = max(worst, float(np.max(np.abs(s.T @ om @ s - om))))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 10
    report("criterion 1, gate algebra (1e-12, N in {8,16,32}, <10 s)", ok,
           f"worst deviation {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-12
    assert elapsed < 10


def test_criterion_2_encoder_matches_closed_form():
    t0 = time.time()
    worst = 1.0
    cases = [
        (build_braunstein5(), 8),
        (build_braunstein5(), 12),
        (build_shor9(), 4),
        (build_repetition3(), 32),
    ]
    for code, n in cases:
        grid = GridSpec(n, code.mode_count)
        for j in range(n):
            enc = encode(eigenstate(n, j), code, grid)
            ref = direct_encoded_state(code, grid, j)
            worst = min(worst, fidelity(enc, ref))
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-10 and elapsed < 60
    report("criterion 2, encoder vs closed form (fid >= 1-1e-10, <60 s)", ok,
           f"worst fidelity {worst:.12f}, {elapsed:.1f} s")
    assert worst >= 1 - 1e-10
    assert elapsed < 60


def test_criterion_3_correctability():
    t0 = time.time()
    five = check_correctability(build_braunstein5())
    rep_pos = check_correctability(build_repetition3(), "position")
    rep_mom = check_correctability(build_repetition3(), "momentum")
    elapsed = time.time() - t0
    ok = (
        five.all_pass
        and five.mode_injective == [True] * 5
        and len(five.pair_ok) == 10
        and rep_pos.all_pass
        and not any(rep_mom.mode_injective)
        and elapsed < 1
    )
    report("criterion 3, correctability checks (<1 s)", ok,
           f"five-mode pass={five.all_pass}, repetition position={rep_pos.all_pass}, "
           f"momentum fails={not any(rep_mom.mode_injective)}, {elapsed:.2f} s")
    assert five.all_pass
    assert rep_pos.all_pass
    assert not any(rep_mom.mode_injective)
    assert elapsed < 1


def test_criterion_4_recovery_roundtrip():
    t0 = time.time()
    code = build_braunstein5()
    n = 12
    grid = GridSpec(n, 5)
    psi = eigenstate(n, 4)
    reference = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)
    model = MeasurementModel.exact()
    worst = 1.0
    cases = 0
    for mode in range(5):
        for k in range(-3, 4):
            for error in (ErrorSpec.displacement(mode, k, 0.0),
                          ErrorSpec.displacement(mode, 0, k * grid.dx)):
                rep = run_qec_cycle(psi, code, error, model, trial_rng(4, mode, k + 3),
                                    grid=grid, plan=plan, reference=reference)
                worst = min(worst, rep.post_correction_fidelity)
                cases += 1
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-9 and cases == 70 and elapsed < 180
    report("criterion 4, five-mode recovery roundtrip (70 cases, <3 min)", ok,
           f"worst fidelity {worst:.12f}, {cases} cases, {elapsed:.1f} s")
    assert cases == 70
    assert worst >= 1 - 1e-9
    assert elapsed < 180


def test_criterion_5_syndrome_pattern():
    code = build_repetition3()
    n = 32
    grid = GridSpec(n, 3)
    enc = encode(eigenstate(n, 16), code, grid)
    ok = True
    for y_points in range(-n // 2, n // 2):
        # error kernel concentrated at displacement y moves the packet to x - y
        damaged = apply_displacement(enc, 0, -y_points, 0.0)
        record, _ = extract_syndrome(damaged, code, MeasurementModel.exact(),
                                     trial_rng(5, 0, y_points + n))
        y = y_points * grid.dx
        want = np.array([grid.wrap_value(-y), 0.0, grid.wrap_value(y)])
        if not np.allclose(record.true_values, want, atol=1e-12):
            ok = False
    report("criterion 5, syndrome pattern {-y, 0, y} exact at N=32", ok)
    assert ok


def test_criterion_6_convolution_error_collapse():
    t0 = time.time()
    code = build_repetition3()
    n = 32
    grid = GridSpec(n, 3)
    psi = eigenstate(n, 14)
    reference = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)
    error = ErrorSpec.convolution(0, 3 * grid.dx)
    model = MeasurementModel.exact()
    worst = 1.0
    for t in range(1000):
        rep = run_qec_cycle(psi, code, error, model, trial_rng(6, 0, t),
                            grid=grid, plan=plan, reference=reference)
        worst = min(worst, rep.post_correction_fidelity)
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-6
    report("criterion 6, convolution-error collapse (1e3 trials)", ok,
           f"worst fidelity {worst:.9f}, {elapsed:.1f} s")
    assert worst >= 1 - 1e-6


def test_criterion_7_decoherence_oracle():
    t0 = time.time()
    code = build_repetition3()
    n = 32
    grid = GridSpec(n, 3)
    lgrid = GridSpec(n, 1)
    c0 = n // 2
    psi = np.zeros(n, dtype=np.complex128)
    psi[c0 - 4] = psi[c0 + 4] = 1 / np.sqrt(2)  # two-peak superposition
    reference = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)
    error = ErrorSpec.displacement(0, 2, 0.0)
    trials = 10_000
    distances = []
    fids = []
    errs = []
    for si, sigma_dx in enumerate((1.0, 2.0, 4.0)):
        model = MeasurementModel.gaussian(sigma_dx * grid.dx)
        rho_mc = np.zeros((n, n), dtype=complex)
        logical = np.empty(trials)
        for t in range(trials):
            rng = trial_rng(7, si, t)
            damaged = apply_error(reference, error)
            record, collapsed = extract_syndrome(damaged, code, model, rng, plan=plan)
            fixed = correct(collapsed, code, record, decode_modes=[0])
            rho = decoded_logical_density(fixed.state, code)
            rho_mc += rho
            logical[t] = float(np.real(psi.conj() @ rho @ psi))
        rho_mc /= trials
        pred = decoherence_prediction(psi, model, code, lgrid, 0)
        distances.append(trace_distance(rho_mc, pred))
        fids.append(logical.mean())
        errs.append(logical.std(ddof=0) / np.sqrt(trials))
    monotone = all(
        fids[i + 1] <= fids[i] + 2 * (errs[i] + errs[i + 1]) for i in range(2)
    )
    elapsed = time.time() - t0
    ok = all(d <= 0.05 for d in distances) and monotone
    report("criterion 7, analytic decoherence oracle (TD <= 0.05 at 1e4 trials)", ok,
           f"trace distances {[f'{d:.3f}' for d in distances]}, "
           f"fidelities {[f'{f:.3f}' for f in fids]}, {elapsed:.0f} s")
    assert all(d <= 0.05 for d in distances)
    assert monotone


def test_criterion_8_transpiler_reproduction():
    qc = builtin_five_qubit_circuit()
    verdicts = enumerate_valid_assignments(qc, grid_n=8)
    valid = [v for v in verdicts if v.valid]
    invalid = [v for v in verdicts if not v.valid]
    emitted = Circuit.from_json(emit_cv_circuit(qc, FIVE_QUBIT_SIGN_ASSIGNMENT))
    stored_is_valid = any(v.assignment == FIVE_QUBIT_SIGN_ASSIGNMENT for v in valid)
    invalid_fail_on_last_pair = all((3, 4) in v.report.failing_pairs() for v in invalid)
    ok = (
        len(verdicts) == 16
        and len(valid) > 0
        and stored_is_valid
        and invalid_fail_on_last_pair
        and emitted.sum_type_count() == 7
        and emitted.sum_type_count() < BASELINE_SUM_GATE_COUNT
        and emitted == build_braunstein5().encoder
    )
    report("criterion 8, transpiler reproduction (16 assignments, 7 Sum gates)", ok,
           f"valid {len(valid)}/16, stored valid={stored_is_valid}, "
           f"sum gates {emitted.sum_type_count()} < {BASELINE_SUM_GATE_COUNT}")
    assert len(verdicts) == 16
    assert valid and stored_is_valid
    assert invalid_fail_on_last_pair
    assert emitted.sum_type_count() == 7 < BASELINE_SUM_GATE_COUNT
    assert emitted == build_braunstein5().encoder


def test_criterion_9_deterministic_csv(tmp_path):
    from cvqec.cli import main

    config = {
        "code": "repetition3",
        "grid_n": 16,
        "sigmas": [0.0, 1.0, 2.0],
        "trials": 60,
        "seed": 9,
        "repetitions": 2,
        "logical": {"kind": "two_peak", "separation": 4},
        "error": {"kind": "displacement", "mode": 0, "shift": 2},
        "decode_modes": [0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for run in range(3):
        out = tmp_path / f"out_{run}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("criterion 9, byte-identical CSV across runs", ok)
    assert ok
