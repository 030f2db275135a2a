import numpy as np
import pytest

from cvqec import (
    CodeSpec,
    ErrorSpec,
    GridSpec,
    MeasurementModel,
    Nullifier,
    apply_displacement,
    apply_error,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    build_syndrome_circuit,
    correct,
    decoded_logical_density,
    decoherence_prediction,
    direct_encoded_state,
    encode,
    extract_syndrome,
    extract_syndrome_via_ancillas,
    fidelity,
    run_qec_cycle,
    trace_distance,
)
from cvqec.syndrome import SyndromeCircuitError, estimator_gain, residual_shift_distribution


def eigenstate(n, j):
    psi = np.zeros(n, dtype=np.complex128)
    psi[j] = 1.0
    return psi


def two_peak(n, sep):
    c0 = n // 2
    psi = np.zeros(n, dtype=np.complex128)
    psi[c0 - sep // 2] = 1.0
    psi[c0 + (sep + 1) // 2] = 1.0
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# measurement models
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel("weird")
    with pytest.raises(ValueError):
        MeasurementModel.gaussian(-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            MeasurementModel.gaussian(bad)
    with pytest.raises(ValueError):
        MeasurementModel.gaussian(1.0, repetitions=0)
    with pytest.raises(ValueError):
        MeasurementModel.custom([])


def test_gaussian_noise_scales_with_repetitions():
    rng = np.random.default_rng(0)
    sigma = 0.7
    for reps in (1, 4):
        model = MeasurementModel.gaussian(sigma, repetitions=reps)
        draws = np.array([model.sample_noise(rng) for _ in range(20000)])
        se = sigma / np.sqrt(reps) / np.sqrt(2 * len(draws))
        assert abs(draws.std() - sigma / np.sqrt(reps)) < 3 * 10 * se
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(reps * len(draws))


def test_custom_model_draws_from_table():
    rng = np.random.default_rng(1)
    model = MeasurementModel.custom([0.5, -0.5], probabilities=[0.8, 0.2])
    draws = np.array([model.sample_noise(rng) for _ in range(5000)])
    assert set(np.unique(draws)) == {-0.5, 0.5}
    assert abs((draws == 0.5).mean() - 0.8) < 0.03


# ---------------------------------------------------------------------------
# syndrome circuits
# ---------------------------------------------------------------------------


def test_repetition_plan_reproduces_pairwise_differences():
    plan = build_syndrome_circuit(build_repetition3())
    assert plan.readout_modes == (3, 4, 5)
    assert plan.circuit.mode_count == 6
    want = np.zeros((3, 6))
    want[0, 0], want[0, 1] = 1, -1
    want[1, 1], want[1, 2] = 1, -1
    want[2, 2], want[2, 0] = 1, -1
    assert np.array_equal(plan.forms, want)
    # each difference is one Sum plus one SumInv into its ancilla, modes in order
    kinds = [g.kind for g in plan.circuit.gates]
    assert kinds == ["Sum", "SumInv", "Sum", "SumInv", "SumInv", "Sum"]
    assert all(g.modes[1] in plan.readout_modes for g in plan.circuit.gates)


def test_braunstein5_plan_measures_the_nullifiers():
    code = build_braunstein5()
    plan = build_syndrome_circuit(code)
    assert len(plan.readout_modes) == 4
    assert np.array_equal(plan.forms, code.syndrome_matrix())
    # every readout mixes two or more quadratures
    for row in plan.forms:
        assert np.sum(np.abs(row) > 0) >= 2


def test_unsupported_nullifier_coefficients_rejected():
    code = build_repetition3()
    rows = (
        Nullifier((1.0, 2.0, 0.0, 0.0, 0.0, 0.0)),  # 2 is not +-1 after scaling
        Nullifier((0.0, 1.0, -1.0, 0.0, 0.0, 0.0)),
    )
    bad = CodeSpec(
        name="bad", mode_count=3, encoder=code.encoder,
        ancilla_modes=code.ancilla_modes, nullifiers=rows, raw_nullifiers=rows,
    )
    with pytest.raises(SyndromeCircuitError):
        build_syndrome_circuit(bad)


# ---------------------------------------------------------------------------
# extraction: the difference-readout pattern and the two routes
# ---------------------------------------------------------------------------


def test_error_free_syndrome_is_zero_and_state_untouched():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    enc = encode(eigenstate(16, 10), code, grid)
    record, post = extract_syndrome(enc, code, MeasurementModel.exact(),
                                    np.random.default_rng(0))
    assert np.array_equal(record.true_values, np.zeros(3))
    assert np.array_equal(record.reported_values, np.zeros(3))
    assert fidelity(post, enc) >= 1 - 1e-12


def test_shift_error_reads_minus_y_zero_y():
    # a delta error kernel at displacement y moves the packet to x - y and the
    # pairwise-difference readouts are exactly {-y, 0, y}
    code = build_repetition3()
    grid = GridSpec(32, 3)
    enc = encode(eigenstate(32, 16), code, grid)
    for k in (-5, -1, 2, 7):
        y = k * grid.dx
        damaged = apply_displacement(enc, 0, -k, 0.0)
        record, _ = extract_syndrome(damaged, code, MeasurementModel.exact(),
                                     np.random.default_rng(0))
        assert np.allclose(record.true_values, [-y, 0.0, y], atol=1e-12)


def test_braunstein5_momentum_syndromes_read_kicks():
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    enc = direct_encoded_state(code, grid, 3)
    syn = code.syndrome_matrix()
    for mode in range(5):
        d = np.zeros(10)
        d[5 + mode] = 2 * grid.dx
        damaged = apply_displacement(enc, mode, 0, 2 * grid.dx)
        record, _ = extract_syndrome(damaged, code, MeasurementModel.exact(),
                                     np.random.default_rng(1))
        expected = np.array([grid.wrap_value(v) for v in syn @ d])
        assert np.allclose(record.true_values, expected, atol=1e-9)


@pytest.mark.parametrize("shift,mode", [(2, 0), (-3, 1), (1, 2)])
def test_projective_route_equals_ancilla_route_repetition(shift, mode):
    code = build_repetition3()
    grid = GridSpec(8, 3)
    enc = encode(eigenstate(8, 4), code, grid)
    damaged = apply_displacement(enc, mode, shift, 0.0)
    rec_a, post_a = extract_syndrome_via_ancillas(
        damaged, code, MeasurementModel.exact(), np.random.default_rng(0)
    )
    rec_p, post_p = extract_syndrome(
        damaged, code, MeasurementModel.exact(), np.random.default_rng(0)
    )
    assert np.allclose(rec_a.true_values, rec_p.true_values, atol=1e-12)
    assert fidelity(post_a, post_p) >= 1 - 1e-12
    assert fidelity(post_a, damaged) >= 1 - 1e-12  # eigenvalue readout, no disturbance


@pytest.mark.parametrize("mode,ex,ep", [(0, 1, 0), (3, 0, 1), (4, -1, 1), (1, 1, -1)])
def test_projective_route_equals_ancilla_route_braunstein5(mode, ex, ep):
    # nine modes total at N = 4 keeps the explicit ancilla circuit affordable
    code = build_braunstein5()
    grid = GridSpec(4, 5)
    enc = direct_encoded_state(code, grid, 1)
    damaged = apply_displacement(enc, mode, ex, ep * grid.dx)
    rec_a, post_a = extract_syndrome_via_ancillas(
        damaged, code, MeasurementModel.exact(), np.random.default_rng(0)
    )
    rec_p, post_p = extract_syndrome(
        damaged, code, MeasurementModel.exact(), np.random.default_rng(0)
    )
    assert np.allclose(rec_a.true_values, rec_p.true_values, atol=1e-9)
    assert fidelity(post_a, post_p) >= 1 - 1e-9


def test_convolution_error_syndrome_distributions_agree_between_routes():
    # under a kernel error the syndrome is genuinely random; compare the full
    # outcome distributions of the two routes instead of single draws
    from cvqec import form_value_distribution, gaussian_kernel, apply_kernel_convolution
    from cvqec.grid import make_product_state, position_distribution
    from cvqec.gates import apply_circuit
    from cvqec.grid import MultiModeState

    code = build_repetition3()
    grid = GridSpec(8, 3)
    enc = encode(eigenstate(8, 4), code, grid)
    damaged, _ = apply_kernel_convolution(enc, 0, gaussian_kernel(grid, 2 * grid.dx))
    # route 1: projective distribution of the first difference form
    plan = build_syndrome_circuit(code)
    dist_p = form_value_distribution(damaged, plan.forms[0])
    # route 2: ancilla circuit marginal on the first readout mode
    big_grid = GridSpec(8, 6)
    anc = make_product_state(GridSpec(8, 3), [4, 4, 4])
    joint = np.multiply.outer(damaged.tensor, anc.tensor).reshape((8,) * 6)
    big = apply_circuit(MultiModeState(big_grid, joint), plan.circuit)
    dist_a = position_distribution(big, plan.readout_modes[0])
    assert np.max(np.abs(dist_p - dist_a)) < 1e-12


def test_gaussian_reported_scatter():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    enc = encode(eigenstate(16, 8), code, grid)
    damaged = apply_displacement(enc, 0, 2, 0.0)
    sigma = 1.5 * grid.dx
    rng = np.random.default_rng(42)
    trials = 4000
    for reps in (1, 4):
        model = MeasurementModel.gaussian(sigma, repetitions=reps)
        errs = []
        for _ in range(trials):
            record, _ = extract_syndrome(damaged, code, model, rng)
            errs.append(record.reported_values - record.true_values)
        errs = np.asarray(errs).ravel()
        want = sigma / np.sqrt(reps)
        se = want / np.sqrt(2 * errs.size)
        assert abs(errs.std() - want) < 4 * se


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------


def test_correct_roundtrip_integer_shift():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    enc = encode(eigenstate(16, 6), code, grid)
    damaged = apply_displacement(enc, 1, 3, 0.0)
    record, post = extract_syndrome(damaged, code, MeasurementModel.exact(),
                                    np.random.default_rng(0))
    result = correct(post, code, record)
    assert result.applied
    assert result.inferred.mode == 1
    assert fidelity(result.state, enc) >= 1 - 1e-9


def test_correct_zero_syndrome_leaves_state():
    code = build_repetition3()
    grid = GridSpec(16, 3)
    enc = encode(eigenstate(16, 6), code, grid)
    record, post = extract_syndrome(enc, code, MeasurementModel.exact(),
                                    np.random.default_rng(0))
    result = correct(post, code, record)
    assert not result.applied
    assert fidelity(result.state, enc) >= 1 - 1e-12


def test_correct_flags_inconsistent_record_in_strict_mode():
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    enc = direct_encoded_state(code, grid, 2)
    record, post = extract_syndrome(enc, code, MeasurementModel.exact(),
                                    np.random.default_rng(0))
    record.reported_values = np.array([1.0, 1.0, 1.0, -1.0])  # outside every image
    result = correct(post, code, record, strict=True)
    assert not result.applied
    assert "residual" in result.reason


# ---------------------------------------------------------------------------
# full cycles
# ---------------------------------------------------------------------------


def test_cycle_no_error_is_identity():
    report = run_qec_cycle(
        eigenstate(16, 9), build_repetition3(), ErrorSpec.none(),
        MeasurementModel.exact(), np.random.default_rng(0), n_points=16,
    )
    assert report.pre_error_fidelity >= 1 - 1e-9
    assert report.post_correction_fidelity >= 1 - 1e-9
    assert report.logical_fidelity >= 1 - 1e-9


@pytest.mark.parametrize("mode", range(5))
def test_cycle_braunstein5_exact_recovery(mode):
    grid = GridSpec(8, 5)
    report = run_qec_cycle(
        eigenstate(8, 3), build_braunstein5(),
        ErrorSpec.displacement(mode, 2, -1 * grid.dx),
        MeasurementModel.exact(), np.random.default_rng(mode), grid=grid,
    )
    assert report.post_correction_fidelity >= 1 - 1e-9
    assert report.correction_applied


def test_cycle_shor9_recovery_every_mode():
    grid = GridSpec(4, 9)
    code = build_shor9()
    ref = encode(eigenstate(4, 1), code, grid)
    from cvqec import build_syndrome_circuit as plan_for

    plan = plan_for(code)
    for mode in range(9):
        for error in (ErrorSpec.displacement(mode, 1, 0.0),
                      ErrorSpec.displacement(mode, 0, grid.dx)):
            report = run_qec_cycle(
                eigenstate(4, 1), code, error,
                MeasurementModel.exact(), np.random.default_rng(mode), grid=grid,
                plan=plan, reference=ref,
            )
            assert report.post_correction_fidelity >= 1 - 1e-9


def test_cycle_repetition_recovery_every_mode_and_shift():
    grid = GridSpec(16, 3)
    code = build_repetition3()
    ref = encode(eigenstate(16, 9), code, grid)
    for mode in range(3):
        for shift in range(-3, 4):
            report = run_qec_cycle(
                eigenstate(16, 9), code, ErrorSpec.displacement(mode, shift),
                MeasurementModel.exact(), np.random.default_rng(mode), grid=grid,
                reference=ref,
            )
            assert report.post_correction_fidelity >= 1 - 1e-9


def test_cycle_convolution_error_collapse_and_recovery():
    grid = GridSpec(32, 3)
    for t in range(50):
        report = run_qec_cycle(
            eigenstate(32, 14), build_repetition3(),
            ErrorSpec.convolution(0, 3 * grid.dx),
            MeasurementModel.exact(), np.random.default_rng(t), grid=grid,
        )
        assert report.post_correction_fidelity >= 1 - 1e-6


def test_cycle_report_serializes():
    import json

    report = run_qec_cycle(
        eigenstate(16, 9), build_repetition3(), ErrorSpec.displacement(0, 2),
        MeasurementModel.exact(), np.random.default_rng(0), n_points=16,
    )
    payload = json.loads(report.to_json())
    assert payload["correction_applied"] is True
    assert payload["inferred_error"]["mode"] == 0


# ---------------------------------------------------------------------------
# analytic post-correction state
# ---------------------------------------------------------------------------


def test_prediction_exact_model_is_pure_projector():
    psi = two_peak(32, 8)
    rho = decoherence_prediction(psi, MeasurementModel.exact())
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-12


def test_prediction_coherence_decays_with_noise_width():
    grid = GridSpec(32, 1)
    psi = two_peak(32, 8)
    i, j = 12, 20
    coherences = []
    for s in (0.5, 1.0, 2.0, 4.0):
        rho = decoherence_prediction(psi, MeasurementModel.gaussian(s * grid.dx))
        coherences.append(abs(rho[i, j]))
    assert all(a > b for a, b in zip(coherences, coherences[1:]))
    assert coherences[-1] < 0.2 * coherences[0]


def test_prediction_custom_common_mode_offset_cancels():
    # an identical offset on every difference readout is invisible to the
    # shift estimate, so the predicted state stays pure
    grid = GridSpec(16, 1)
    psi = eigenstate(16, 8)
    model = MeasurementModel.custom([2 * grid.dx])
    rho = decoherence_prediction(psi, model)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-12


def test_prediction_custom_asymmetric_table_mixes_shifts():
    grid = GridSpec(16, 1)
    psi = eigenstate(16, 8)
    code = build_repetition3()
    model = MeasurementModel.custom([3 * grid.dx, -3 * grid.dx])
    p = residual_shift_distribution(code, model, grid)
    assert p.sum() == pytest.approx(1.0)
    assert p[grid.center_index] < 1.0  # independent readout offsets do shift
    rho = decoherence_prediction(psi, model, code, grid)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert abs(rho[8, 8]) < 1.0


def test_estimator_gain_for_repetition_difference_readouts():
    assert estimator_gain(build_repetition3(), 0) == pytest.approx(1 / np.sqrt(2))


def test_residual_distribution_sums_to_one_and_tightens_with_repetitions():
    grid = GridSpec(32, 1)
    code = build_repetition3()
    p1 = residual_shift_distribution(code, MeasurementModel.gaussian(2 * grid.dx), grid)
    p4 = residual_shift_distribution(
        code, MeasurementModel.gaussian(2 * grid.dx, repetitions=4), grid
    )
    assert p1.sum() == pytest.approx(1.0)
    assert p4.sum() == pytest.approx(1.0)
    assert p4[grid.center_index] > p1[grid.center_index]


def test_monte_carlo_matches_prediction_smoke():
    from cvqec.experiments import trial_rng
    from cvqec.syndrome import build_syndrome_circuit

    code = build_repetition3()
    n = 32
    grid = GridSpec(n, 3)
    lgrid = GridSpec(n, 1)
    psi = two_peak(n, 8)
    ref = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)
    model = MeasurementModel.gaussian(2 * grid.dx)
    err = ErrorSpec.displacement(0, 2, 0.0)
    trials = 1500
    rho_mc = np.zeros((n, n), dtype=complex)
    for t in range(trials):
        rng = trial_rng(11, 0, t)
        damaged = apply_error(ref, err)
        record, collapsed = extract_syndrome(damaged, code, model, rng, plan=plan)
        fixed = correct(collapsed, code, record, decode_modes=[0])
        rho_mc += decoded_logical_density(fixed.state, code)
    rho_mc /= trials
    pred = decoherence_prediction(psi, model, code, lgrid, 0)
    assert trace_distance(rho_mc, pred) < 0.1


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0)
