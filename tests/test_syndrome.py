import json
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as hs

from cvqec import (
    CodeSpec,
    ErrorSpec,
    GridError,
    GridSpec,
    MeasurementModel,
    MultiModeState,
    Nullifier,
    QecCycleReport,
    SyndromeRecord,
    apply_circuit,
    apply_displacement,
    apply_error,
    apply_kernel_convolution,
    build_braunstein5,
    build_repetition3,
    build_shor9,
    build_syndrome_circuit,
    circuit_symplectic,
    correct,
    decoded_logical_density,
    decoherence_prediction,
    direct_encoded_state,
    encode,
    extract_syndrome,
    extract_syndrome_via_ancillas,
    fidelity,
    form_value_distribution,
    gaussian_kernel,
    get_code,
    make_product_state,
    run_qec_cycle,
    trace_distance,
)
import cvqec.grid as grid_module
import cvqec.syndrome as syndrome_module
from oracle_helpers import (
    circuit_from_steps,
    displaced_line_fidelities,
    looped_residual_shift_distribution,
    rolled_decoherence_prediction,
    sample_noise,
    trial_fields,
)
from cvqec.symplectic import encoder_images, weyl_phase_form
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
        draws = syndrome_module._readout_noise(model, rng, 20000).mean(axis=-1)
        se = sigma / np.sqrt(reps) / np.sqrt(2 * len(draws))
        assert abs(draws.std() - sigma / np.sqrt(reps)) < 3 * 10 * se
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(reps * len(draws))


def test_custom_model_draws_from_table():
    rng = np.random.default_rng(1)
    model = MeasurementModel.custom([0.5, -0.5], probabilities=[0.8, 0.2])
    draws = syndrome_module._readout_noise(model, rng, 5000).mean(axis=-1)
    assert set(np.unique(draws)) == {-0.5, 0.5}
    assert abs((draws == 0.5).mean() - 0.8) < 0.03


BAD_TABLES = {
    "probabilities summing to 1.1": ([0.5, -0.5], [0.5, 0.6], "sum to 1"),
    "probabilities summing to 1 + 1e-7": ([0.5, -0.5], [0.5, 0.5 + 1e-7], "sum to 1"),
    "negative probability": ([0.5, -0.5], [-0.5, 1.5], "finite and >= 0"),
    "nan probability": ([0.5, -0.5], [float("nan"), 1.0], "finite and >= 0"),
    "nan offset": ([float("nan"), 0.5], None, "offsets must be finite"),
    "inf offset": ([0.5, float("-inf")], [0.5, 0.5], "offsets must be finite"),
}


@pytest.mark.parametrize("case", list(BAD_TABLES))
def test_custom_model_refuses_a_table_its_sampler_cannot_draw(case):
    offsets, probabilities, message = BAD_TABLES[case]
    with pytest.raises(ValueError, match=message):
        MeasurementModel.custom(offsets, probabilities)


def test_custom_model_accepts_probabilities_within_the_choice_tolerance():
    # [0.1] * 10 sums to 1 - 1.1e-16, and 1e-9 is inside sqrt(eps)
    for probabilities in ([0.1] * 10, [0.5, 0.5 + 1e-9]):
        offsets = np.arange(len(probabilities)) * 0.25
        model = MeasurementModel.custom(offsets, probabilities)
        draws = syndrome_module._readout_noise(model, np.random.default_rng(0), 4)
        assert draws.shape == (4, 1)
        assert set(draws.ravel()) <= set(offsets)


CUSTOM_TABLES = [
    ((0.5, -0.5), None),
    ((-0.75, -0.25, 0.0, 0.5, 1.25), None),
    ((0.5, -0.5), (0.8, 0.2)),
    ((-0.75, -0.25, 0.0, 0.5, 1.25), (0.1, 0.2, 0.3, 0.15, 0.25)),
]


@pytest.mark.parametrize("offsets, probabilities", CUSTOM_TABLES)
def test_readout_noise_draws_the_per_value_oracle(offsets, probabilities):
    """A custom model's one ``rng.choice`` call gives, byte for byte, the
    means of k value-by-value oracle draws and leaves the generator at the
    same next double, on the sweeps' Philox streams and on PCG64."""
    from cvqec.experiments import trial_rng

    for reps in (1, 2, 3, 8, 9, 17):
        model = MeasurementModel.custom(offsets, probabilities, reps)
        for k in (1, 2, 4, 8):
            for seed in range(25):
                for make in (np.random.default_rng, lambda s: trial_rng(s, 1, 2)):
                    fast, slow = make(seed), make(seed)
                    drawn = syndrome_module._readout_noise(model, fast, k)
                    assert drawn.shape == (k, reps)
                    expected = np.array([sample_noise(model, slow) for _ in range(k)])
                    assert drawn.mean(axis=-1).tobytes() == expected.tobytes()
                    assert fast.random() == slow.random()


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


NOT_APPLIED = {
    # a shift of 0.3 dx rounds to no grid step
    "zero correction": (lambda forms, dx: forms[:, 2] * 0.3 * dx, False, True),
    # the wrap edge: -N/2 steps on two readouts fit a shift of mode 1 and of mode 3
    "modes 1 and 3 both match the syndrome": (
        lambda forms, dx: np.array([-8.0, -8.0, 0.0, 0.0]) * dx, False, False),
    "no single-mode displacement matches (best residual 1.000e+00)": (
        lambda forms, dx: np.array([1.0, 1.0, 1.0, -1.0]), True, False),
}


@pytest.mark.parametrize("reason", NOT_APPLIED)
def test_correct_states_why_it_applied_nothing(reason):
    # the benchmark classifies correct()'s outcomes by these texts
    code = build_braunstein5()
    grid = GridSpec(16, 5)
    record, post = extract_syndrome(direct_encoded_state(code, grid, 8), code,
                                    MeasurementModel.exact(), np.random.default_rng(0))
    reported, strict, inferred = NOT_APPLIED[reason]
    record.reported_values = reported(record.forms, grid.dx)
    result = correct(post, code, record, strict=strict)
    assert (result.applied, result.reason) == (False, reason)
    assert (result.inferred is not None) == inferred
    assert result.state is post


# ---------------------------------------------------------------------------
# full cycles
# ---------------------------------------------------------------------------


#: braunstein5 N=16 displacements (mode, shift points, kick in dx) and the
#: decode outcome of their cycle: a fractional kick rounds to no grid step,
#: and the wrap edge -N/2 fits two inequivalent modes
CYCLE_OUTCOMES = {
    (4, -2, 1.0): "applied",
    (1, 0, 0.3): "zero_correction",
    (2, -8, -8.0): "ambiguous",
    (3, -8, -8.0): "ambiguous",
}


def test_cycle_reports_each_decode_outcome_it_can_reach():
    """The cycle's decode outcome agrees with correct()'s verdict on the same
    record; under the cycle's unbounded residual tolerance no record is
    unrecognized."""
    code, grid = build_braunstein5(), GridSpec(16, 5)
    psi = eigenstate(16, 8)
    reference = encode(psi, code, grid)
    reasons = {"": "applied", "zero correction": "zero_correction"}
    for (mode, shift, kick), want in CYCLE_OUTCOMES.items():
        report = run_qec_cycle(psi, code, ErrorSpec.displacement(mode, shift, kick * grid.dx),
                               MeasurementModel.exact(), np.random.default_rng(1), grid=grid,
                               reference=reference)
        assert report.decode_outcome == want
        assert report.correction_applied == (want == "applied")
        assert (report.inferred_error is None) == (want == "ambiguous")
        assert json.loads(report.to_json())["decode_outcome"] == want
        result = correct(reference, code, report.syndrome)
        got = reasons.get(result.reason, "ambiguous" if "both match" in result.reason else None)
        assert got == want
        if want == "ambiguous":
            assert result.reason == "modes 0 and 1 both match the syndrome"


def test_cycle_report_built_positionally_has_no_decode_outcome():
    record = SyndromeRecord(np.zeros(2), np.zeros(2), (0, 1), np.zeros((2, 6)))
    report = QecCycleReport(1.0, 1.0, 1.0, None, record, False)
    assert report.decode_outcome is None
    assert json.loads(report.to_json())["decode_outcome"] is None


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
# the decoded frame against the Fourier and explicit-ancilla oracles
# ---------------------------------------------------------------------------


def test_plan_reads_the_repetition_forms_off_the_ancilla_positions():
    code = build_repetition3()
    plan = build_syndrome_circuit(code)
    # decoded ancillae a1 = x1 - x0, a2 = x2 - x0
    assert np.array_equal(plan.ancilla_map, [[-1, 0], [1, -1], [0, 1]])
    s = circuit_symplectic(code.encoder).matrix
    assert np.array_equal(plan.decoded_shift @ s, np.eye(6))
    assert plan.ancilla_map.dtype.kind == plan.decoded_shift.dtype.kind == "i"


@pytest.mark.parametrize("rows", [
    # doubled differences: the values determine the ancillae only up to N/2
    [(2.0, -2.0, 0.0, 0.0, 0.0, 0.0), (0.0, 2.0, -2.0, 0.0, 0.0, 0.0)],
    # x0 is the logical position, not a function of the ancillae
    [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, -1.0, 0.0, 0.0, 0.0)],
])
def test_plan_rejects_forms_the_ancilla_projection_cannot_measure(rows):
    code = build_repetition3()
    rows = tuple(Nullifier(r) for r in rows)
    bad = CodeSpec(
        name="bad", mode_count=3, encoder=code.encoder,
        ancilla_modes=code.ancilla_modes, nullifiers=rows, raw_nullifiers=rows,
    )
    with pytest.raises(SyndromeCircuitError):
        build_syndrome_circuit(bad)


CASES = [("repetition3", 8), ("repetition3", 16), ("braunstein5", 6),
         ("braunstein5", 8), ("shor9", 4)]
BUILD = {"repetition3": build_repetition3, "braunstein5": build_braunstein5,
         "shor9": build_shor9}


def _damaged(code, n, seed, mode, shift, kick, width):
    """encode a random logical state, then displace and convolve one mode"""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    grid = GridSpec(n, code.mode_count)
    state = encode(psi / np.linalg.norm(psi), code, grid)
    state = apply_displacement(state, mode, shift, kick * grid.dx)
    state, _ = apply_kernel_convolution(state, mode, gaussian_kernel(grid, width * grid.dx))
    return state


@settings(max_examples=30, deadline=None)
@given(
    case=hs.sampled_from(CASES),
    seed=hs.integers(0, 2**32 - 1),
    mode_pick=hs.integers(0, 8),
    shift=hs.integers(-2, 2),
    kick=hs.integers(-2, 2),
    width=hs.floats(0.5, 1.5),
)
def test_decoded_frame_marginals_match_fourier_oracle(case, seed, mode_pick, shift, kick, width):
    name, n = case
    code = BUILD[name]()
    plan = build_syndrome_circuit(code)
    damaged = _damaged(code, n, seed, mode_pick % code.mode_count, shift, kick, width)
    decoded = apply_circuit(damaged, code.encoder.inverse())
    joint = np.sum(np.abs(decoded.tensor) ** 2, axis=code.logical_mode)
    a = np.indices(joint.shape).reshape(code.mode_count - 1, -1) - n // 2
    for row, g in zip(plan.forms, plan.ancilla_map):
        labels = np.mod(g @ a + n // 2, n)
        ours = np.bincount(labels, weights=joint.reshape(-1), minlength=n)
        assert np.max(np.abs(ours - form_value_distribution(damaged, row))) <= 1e-12


def _outcome_law(big, readout_modes):
    """joint law of the readout values of an explicit-ancilla state"""
    p = np.abs(big.tensor) ** 2
    data = tuple(ax for ax in range(big.grid.mode_count) if ax not in readout_modes)
    joint = p.sum(axis=data)
    return {idx: joint[idx] for idx in zip(*np.nonzero(joint > 1e-15))}


@pytest.mark.parametrize("name,n,mode", [("repetition3", 8, 1), ("braunstein5", 4, 3)])
def test_extraction_matches_ancilla_route_under_convolution(name, n, mode):
    # under a kernel error the readouts are random: compare the outcome laws,
    # then the collapsed states of every outcome both routes drew
    code = BUILD[name]()
    plan = build_syndrome_circuit(code)
    grid = GridSpec(n, code.mode_count)
    damaged = _damaged(code, n, 5, mode, 1, 1, 0.8)
    k, total = len(plan.forms), plan.circuit.mode_count
    anc = make_product_state(GridSpec(n, k), [n // 2] * k)
    joint = np.multiply.outer(damaged.tensor, anc.tensor).reshape((n,) * total)
    big = apply_circuit(MultiModeState(GridSpec(n, total), joint), plan.circuit)
    oracle = _outcome_law(big, plan.readout_modes)
    decoded = apply_circuit(damaged, code.encoder.inverse())
    p = np.sum(np.abs(decoded.tensor) ** 2, axis=code.logical_mode)
    ours: dict = {}
    for a in zip(*np.nonzero(p > 1e-15)):
        values = np.mod(plan.ancilla_map @ (np.array(a) - n // 2) + n // 2, n)
        key = tuple(int(v) for v in values)
        ours[key] = ours.get(key, 0.0) + p[a]
    assert oracle.keys() == ours.keys()
    assert max(abs(oracle[key] - ours[key]) for key in oracle) <= 1e-12
    posts: dict = {}
    for seed in range(12):
        for route in (extract_syndrome, extract_syndrome_via_ancillas):
            rec, post = route(damaged, code, MeasurementModel.exact(),
                              np.random.default_rng(seed))
            posts.setdefault(tuple(np.round(rec.true_values / grid.dx).astype(int)),
                             []).append(post)
    shared = [states for states in posts.values() if len(states) > 1]
    assert shared
    for states in shared:
        assert all(fidelity(states[0], other) >= 1 - 1e-12 for other in states[1:])


def test_extraction_draws_one_double():
    code = build_braunstein5()
    damaged = _damaged(code, 6, 3, 2, 1, -1, 1.0)
    ours, twin = np.random.default_rng(9), np.random.default_rng(9)
    extract_syndrome(damaged, code, MeasurementModel.exact(), ours)
    twin.random()
    assert ours.random() == twin.random()


def _physical_cycle(psi, code, error, model, rng, grid, plan, reference, decode_modes):
    """run_qec_cycle composed from the physical-frame public stages"""
    damaged = apply_error(reference, error)
    pre = fidelity(damaged, reference)
    record, collapsed = extract_syndrome(damaged, code, model, rng, plan=plan)
    result = correct(collapsed, code, record, decode_modes=decode_modes)
    rho = decoded_logical_density(result.state, code)
    logical = float(np.real(psi.conj() @ rho @ psi))
    return pre, fidelity(result.state, reference), logical, record, result


def _assert_cycle_matches_physical_frame(psi, code, error, model, seed, grid, plan, reference,
                                         decode_modes=None):
    """run_qec_cycle against its physical-frame composition from one seed:
    the same record and decode, the same pre-error fidelity, the other two
    within 1e-12, and the same random draws consumed"""
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    report = run_qec_cycle(psi, code, error, model, ours, grid=grid, plan=plan,
                           reference=reference, decode_modes=decode_modes)
    pre, post, logical, record, result = _physical_cycle(
        psi, code, error, model, twin, grid, plan, reference, decode_modes)
    assert report.pre_error_fidelity == pre
    assert np.array_equal(report.syndrome.true_values, record.true_values)
    assert np.array_equal(report.syndrome.reported_values, record.reported_values)
    assert report.inferred_error == result.inferred
    assert report.correction_applied == result.applied
    assert abs(report.post_correction_fidelity - post) <= 1e-12
    assert abs(report.logical_fidelity - logical) <= 1e-12
    assert ours.random() == twin.random()


@pytest.mark.parametrize("name,n,errors", [
    ("repetition3", 16, [ErrorSpec.displacement(m, s) for m in range(3) for s in (-3, 2)]
     + [ErrorSpec.convolution(0, 0.7)]),
    ("braunstein5", 8, [ErrorSpec.displacement(m, 2, -0.6) for m in range(5)]
     + [ErrorSpec.convolution(3, 0.5)]),
    ("shor9", 4, [ErrorSpec.displacement(m, 1) for m in range(9)]),
    ("braunstein5", 16, [ErrorSpec.displacement(1, -2, 1.0), ErrorSpec.displacement(4, 1, 0.5),
                         ErrorSpec.convolution(2, 0.8)]),
])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_cycle_matches_physical_frame_composition(name, n, errors, sigma):
    code = BUILD[name]()
    grid = GridSpec(n, code.mode_count)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    reference = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)
    model = MeasurementModel.gaussian(sigma * grid.dx) if sigma else MeasurementModel.exact()
    for t, error in enumerate(errors):
        if error.kind == "displacement":  # kicks in units of dx
            error = ErrorSpec.displacement(error.mode, error.shift_points,
                                           error.momentum_kick * grid.dx)
        else:
            error = ErrorSpec.convolution(error.mode, error.kernel_width * grid.dx)
        _assert_cycle_matches_physical_frame(psi, code, error, model, t, grid, plan, reference)


# "random" is a three-mode code from a drawn F/Sum encoder: unlike the built-in
# codes, its single-mode errors can put several Weyl terms on one ancilla
# tuple, so their relative phases (the phase form) reach the fidelities
FRAME_CASES = ([("repetition3", n) for n in (6, 8, 12, 16)]
               + [("braunstein5", n) for n in (6, 8, 12)] + [("shor9", 4)]
               + [("random", 6), ("random", 8)])


@settings(max_examples=150, deadline=None)
@given(
    case=hs.sampled_from(FRAME_CASES),
    steps=hs.lists(hs.tuples(hs.sampled_from(["F", "Finv", "Sum", "SumInv"]),
                             hs.integers(0, 2), hs.integers(1, 2)), min_size=1, max_size=6),
    seed=hs.integers(0, 2**32 - 1),
    error_kind=hs.sampled_from(["none", "integer kick", "fractional kick", "gaussian",
                                "kernel"]),
    mode_pick=hs.integers(0, 8),
    shift=hs.integers(-3, 3),
    kick=hs.integers(-3, 3),
    readout=hs.sampled_from(["exact", "gaussian", "gaussian twice", "custom"]),
    decode_pick=hs.none() | hs.integers(0, 8),
)
# the kicked terms of a shifted mode 0 share ancilla tuples in this code, and
# the inverse encoder holds both F and Finv
@example(case=("random", 6), seed=0, error_kind="fractional kick", mode_pick=0, shift=1, kick=0,
         readout="exact", decode_pick=None,
         steps=[("Sum", 1, 1), ("Finv", 0, 1), ("F", 0, 2), ("Sum", 2, 2), ("Sum", 2, 2),
                ("Sum", 1, 2)])
def test_cycle_matches_physical_frame_on_drawn_inputs(case, steps, seed, error_kind, mode_pick,
                                                      shift, kick, readout, decode_pick):
    name, n = case
    if name == "random":
        code = CodeSpec.from_encoder("random", circuit_from_steps(3, steps))
    else:
        code = BUILD[name]()
    try:
        plan = build_syndrome_circuit(code)
    except SyndromeCircuitError:  # only a drawn encoder can fail here
        reject()
    grid = GridSpec(n, code.mode_count)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mode = mode_pick % code.mode_count
    dx = grid.dx
    if error_kind == "none":
        error = ErrorSpec.none()
    elif error_kind == "integer kick":
        error = ErrorSpec.displacement(mode, shift, kick * dx)
    elif error_kind == "fractional kick":
        error = ErrorSpec.displacement(mode, shift, (kick + rng.uniform(0.05, 0.95)) * dx)
    elif error_kind == "gaussian":
        error = ErrorSpec.convolution(mode, rng.uniform(0.3, 1.2) * dx)
    else:  # complex, with exact zeros; the centre entry keeps it nonzero
        kernel = rng.normal(size=n) + 1j * rng.normal(size=n)
        kernel[rng.random(n) < 0.5] = 0.0
        kernel[n // 2] = 1.0
        error = ErrorSpec("convolution", mode=mode, kernel=tuple(kernel))
    model = {
        "exact": MeasurementModel.exact(),
        "gaussian": MeasurementModel.gaussian(0.8 * dx),
        "gaussian twice": MeasurementModel.gaussian(0.8 * dx, repetitions=2),
        "custom": MeasurementModel.custom([-0.6 * dx, 0.0, 0.9 * dx], [0.3, 0.5, 0.2]),
    }[readout]
    decode_modes = None if decode_pick is None else [decode_pick % code.mode_count]
    _assert_cycle_matches_physical_frame(psi, code, error, model, seed, grid, plan,
                                         encode(psi, code, grid), decode_modes)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_non_finite_or_zero_explicit_kernel_is_refused(bad):
    # a NaN entry used to reach the Born sampler through both the dense error
    # and the Weyl terms
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    psi = eigenstate(8, 4)
    kernel = np.zeros(8, dtype=np.complex128)
    kernel[5] = bad
    error = ErrorSpec("convolution", mode=2, kernel=tuple(kernel))
    with pytest.raises(GridError, match="finite and not all zero"):
        apply_error(encode(psi, code, grid), error)
    with pytest.raises(GridError, match="finite and not all zero"):
        syndrome_module._weyl_terms(error, grid)
    with pytest.raises(GridError, match="finite and not all zero"):
        run_qec_cycle(psi, code, error, MeasurementModel.exact(),
                      np.random.default_rng(1), grid=grid)


@pytest.mark.parametrize("length", [4, 12])
def test_explicit_kernel_of_another_length_than_n_is_refused(length):
    # the frame route reads only the kernel's nonzero entries, so it ran
    # such kernels, to fidelity 1.0, where the dense error refused them
    code, psi = build_braunstein5(), eigenstate(8, 4)
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[3] = 1.0
    error = ErrorSpec("convolution", mode=2, kernel=tuple(kernel))
    plan = build_syndrome_circuit(code)
    with pytest.raises(GridError, match=r"kernel shape \(%d,\) != \(8,\)" % length):
        syndrome_module._OutcomeTable(psi, code, error, plan, GridSpec(8, 1), None)
    with pytest.raises(GridError, match=r"kernel shape \(%d,\) != \(8,\)" % length):
        run_qec_cycle(psi, code, error, MeasurementModel.exact(), np.random.default_rng(1),
                      grid=GridSpec(8, 5), plan=plan)


def test_tiny_explicit_kernel_runs_on_the_dense_and_the_frame_route():
    # every entry below 1e-8: the dense error used to refuse it as "all-zero"
    # while the frame route ran it, so a cycle raised where a sweep did not
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    psi = two_peak(8, 3)
    kernel = np.zeros(8, dtype=np.complex128)
    kernel[4], kernel[5] = 1e-9, 5e-10
    error = ErrorSpec("convolution", mode=2, kernel=tuple(kernel))
    plan = build_syndrome_circuit(code)
    reference = encode(psi, code, grid)
    models = [MeasurementModel.exact(), MeasurementModel.gaussian(0.8 * grid.dx)]
    for seed, model in enumerate(models):
        _assert_cycle_matches_physical_frame(psi, code, error, model, seed, grid, plan, reference)
    table = syndrome_module._OutcomeTable(psi, code, error, plan, grid, None)
    post, logical, *_ = table.trial(MeasurementModel.exact(), np.random.default_rng(5))
    report = run_qec_cycle(psi, code, error, MeasurementModel.exact(), np.random.default_rng(5),
                           grid=grid, plan=plan, reference=reference)
    assert (report.post_correction_fidelity, report.logical_fidelity) == (post, logical)
    assert report.pre_error_fidelity < 1 - 1e-3  # the error is not the identity


def test_cycle_with_reference_runs_no_gate(monkeypatch):
    code = build_braunstein5()
    grid = GridSpec(8, 5)
    psi = two_peak(8, 3)
    reference = encode(psi, code, grid)
    plan = build_syndrome_circuit(code)

    def refuse(*args, **kwargs):
        raise AssertionError("run_qec_cycle ran a circuit on the dense tensor")

    monkeypatch.setattr(syndrome_module, "apply_circuit", refuse)
    for error in (ErrorSpec.none(), ErrorSpec.displacement(2, 1, grid.dx),
                  ErrorSpec.displacement(3, -1, 0.4 * grid.dx), ErrorSpec.convolution(4, 0.6)):
        report = run_qec_cycle(psi, code, error, MeasurementModel.exact(),
                               np.random.default_rng(1), grid=grid, plan=plan,
                               reference=reference)
        assert report.logical_fidelity >= 1 - 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    k=hs.integers(1, 8),
    repetitions=hs.integers(1, 9),
    sigma=hs.just(0.0) | hs.floats(1e-6, 10.0),
    kind=hs.sampled_from(["gaussian", "exact"]),
)
def test_record_draws_the_noise_of_the_per_value_loop(seed, k, repetitions, sigma, kind):
    from cvqec.experiments import trial_rng

    model = (MeasurementModel.gaussian(sigma, repetitions) if kind == "gaussian"
             else MeasurementModel.exact())
    plan = build_syndrome_circuit(build_repetition3())  # _record reads only its forms
    true_vals = np.random.default_rng(seed).integers(-8, 9, size=k) * 0.25
    fast, slow = trial_rng(seed, 1, 2), trial_rng(seed, 1, 2)
    record = syndrome_module._record(true_vals, model, fast, plan)
    expected = np.array([v + sample_noise(model, slow) for v in true_vals])
    assert record.reported_values.tobytes() == expected.tobytes()
    assert fast.random() == slow.random()  # the streams stay in step


FRAME_ERRORS = ["none", "integer kick", "fractional kick", "gaussian"]
TABLE_CASES = [("repetition3", 8), ("repetition3", 16), ("braunstein5", 8), ("shor9", 4)]


def _frame_inputs(name, n, seed, error_kind, mode_pick, shift, kick):
    """A built-in code, its plan, a one-mode grid, a random logical state
    and a drawn error on one of its modes."""
    code = BUILD[name]()
    grid = GridSpec(n, 1)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mode = mode_pick % code.mode_count
    if error_kind == "none":
        error = ErrorSpec.none()
    elif error_kind == "integer kick":
        error = ErrorSpec.displacement(mode, shift, kick * grid.dx)
    elif error_kind == "fractional kick":
        error = ErrorSpec.displacement(mode, shift, (kick + rng.uniform(0.05, 0.95)) * grid.dx)
    else:
        error = ErrorSpec.convolution(mode, rng.uniform(0.3, 1.2) * grid.dx)
    return code, build_syndrome_circuit(code), grid, psi, error


@settings(max_examples=80, deadline=None)
@given(
    case=hs.sampled_from(TABLE_CASES),
    seed=hs.integers(0, 2**32 - 1),
    error_kind=hs.sampled_from(FRAME_ERRORS),
    mode_pick=hs.integers(0, 8),
    shift=hs.integers(-3, 3),
    kick=hs.integers(-3, 3),
)
def test_decoded_lines_draw_is_sample_and_collapse(case, seed, error_kind, mode_pick, shift,
                                                  kick):
    # the frame trial and the sweep's outcome table draw one tuple of the
    # decoded lines and renormalize it, as the dense projection does
    code, plan, grid, psi, error = _frame_inputs(*case, seed, error_kind, mode_pick, shift, kick)
    _, lines, probs = syndrome_module._decoded_lines(psi, error, code, plan, grid)
    (t,), collapsed = grid_module._sample_and_collapse(
        lines, probs, (0,), np.random.default_rng(seed))
    drawn = grid_module._draw_outcome(np.cumsum(probs), np.random.default_rng(seed))
    assert drawn == t
    assert grid_module._renormalized(lines[t]).tobytes() == collapsed[t].tobytes()
    assert not np.any(np.delete(collapsed, t, axis=0))


@settings(max_examples=80, deadline=None)
@given(
    case=hs.sampled_from(TABLE_CASES),
    seed=hs.integers(0, 2**32 - 1),
    error_kind=hs.sampled_from(FRAME_ERRORS),
    mode_pick=hs.integers(0, 8),
    shift=hs.integers(-3, 3),
    kick=hs.integers(-3, 3),
    readout=hs.sampled_from(["exact", "gaussian 0", "gaussian", "gaussian thrice", "custom"]),
    decode_pick=hs.none() | hs.integers(0, 8),
)
def test_outcome_table_trials_equal_frame_trials(case, seed, error_kind, mode_pick, shift, kick,
                                                 readout, decode_pick):
    code, plan, grid, psi, error = _frame_inputs(*case, seed, error_kind, mode_pick, shift, kick)
    dx = grid.dx
    model = {
        "exact": MeasurementModel.exact(),
        "gaussian 0": MeasurementModel.gaussian(0.0, repetitions=2),
        "gaussian": MeasurementModel.gaussian(0.8 * dx),
        "gaussian thrice": MeasurementModel.gaussian(0.6 * dx, repetitions=3),
        "custom": MeasurementModel.custom([-0.6 * dx, 0.0, 0.9 * dx], [0.3, 0.5, 0.2]),
    }[readout]
    decode_modes = None if decode_pick is None else [decode_pick % code.mode_count]
    table = syndrome_module._OutcomeTable(psi, code, error, plan, grid, decode_modes)
    for trial in range(8):  # later trials hit the memoized outcomes
        # a fresh one-trial table memoizes nothing: the untabulated reference
        fresh = syndrome_module._OutcomeTable(psi, code, error, plan, grid, decode_modes)
        frame = fresh.trial(model, np.random.default_rng([seed, trial]))
        shared = table.trial(model, np.random.default_rng([seed, trial]))
        assert trial_fields(shared) == trial_fields(frame)


READOUTS = {
    "exact": lambda dx: MeasurementModel.exact(),
    "gaussian 0": lambda dx: MeasurementModel.gaussian(0.0, repetitions=2),
    "gaussian": lambda dx: MeasurementModel.gaussian(0.8 * dx),
    "gaussian thrice": lambda dx: MeasurementModel.gaussian(0.6 * dx, repetitions=3),
    "custom": lambda dx: MeasurementModel.custom([-0.6 * dx, 0.0, 0.9 * dx], [0.3, 0.5, 0.2]),
}


@pytest.mark.parametrize("readout", READOUTS)
def test_trials_batch_across_chunks_equals_frame_trials(monkeypatch, readout):
    # a convolution spreads the draws over several tuples, and every mode is
    # a decode candidate; 23 trials in chunks of 5 cross four chunk edges
    monkeypatch.setattr(syndrome_module, "_TRIAL_CHUNK", 5)
    code, grid = build_braunstein5(), GridSpec(8, 1)
    plan, psi = build_syndrome_circuit(code), two_peak(8, 2)
    error, model = ErrorSpec.convolution(2, 0.8 * grid.dx), READOUTS[readout](grid.dx)
    table = syndrome_module._OutcomeTable(psi, code, error, plan, grid, None)
    batches = list(table.trials(model, (np.random.default_rng([3, t]) for t in range(23))))
    assert [len(b.post) for b in batches] == [5, 5, 5, 5, 3]
    want = []
    for t in range(23):
        fresh = syndrome_module._OutcomeTable(psi, code, error, plan, grid, None)
        want.append(trial_fields(fresh.trial(model, np.random.default_rng([3, t]))))
    assert [trial_fields(b.row(i)) for b in batches for i in range(len(b.post))] == want


def test_trials_batch_at_the_chunk_size_equals_frame_trials():
    # the sweep's re-keyed streams against one trial_rng generator per trial,
    # across the real chunk edge
    from cvqec.experiments import _trial_streams, trial_rng

    count = syndrome_module._TRIAL_CHUNK + 3
    code, grid = build_repetition3(), GridSpec(8, 1)
    plan, psi = build_syndrome_circuit(code), two_peak(8, 2)
    error, model = ErrorSpec.displacement(1, 2), MeasurementModel.gaussian(0.9 * grid.dx)
    table = syndrome_module._OutcomeTable(psi, code, error, plan, grid, None)
    batches = list(table.trials(model, _trial_streams(6, 2, range(count))))
    assert [len(b.post) for b in batches] == [syndrome_module._TRIAL_CHUNK, 3]
    got = [trial_fields(b.row(i)) for b in batches for i in range(len(b.post))]
    for t in range(count):
        fresh = syndrome_module._OutcomeTable(psi, code, error, plan, grid, None)
        assert got[t] == trial_fields(fresh.trial(model, trial_rng(6, 2, t)))


def _fidelity_bits(pair):
    return tuple(float(f).hex() for f in pair)


@settings(max_examples=60, deadline=None)
@given(
    case=hs.sampled_from(TABLE_CASES),
    seed=hs.integers(0, 2**32 - 1),
    error_kind=hs.sampled_from(FRAME_ERRORS),
    mode_pick=hs.integers(0, 8),
    shift=hs.integers(-3, 3),
    kick=hs.integers(-3, 3),
    sigma_dx=hs.sampled_from([0.0, 0.4, 1.0, 2.5]),
    decode_pick=hs.none() | hs.integers(0, 8),
)
def test_corrected_fidelities_equal_the_displaced_state_route(
    case, seed, error_kind, mode_pick, shift, kick, sigma_dx, decode_pick
):
    # every (tuple, correction) pair a drawn table's trials memoize: the one
    # gather and kick on the line against a one-mode state moved by
    # apply_displacement
    code, plan, grid, psi, error = _frame_inputs(*case, seed, error_kind, mode_pick, shift, kick)
    decode_modes = None if decode_pick is None else [decode_pick % code.mode_count]
    table = syndrome_module._OutcomeTable(psi, code, error, plan, grid, decode_modes)
    model = MeasurementModel.gaussian(sigma_dx * grid.dx, repetitions=2)
    for _ in table.trials(model, (np.random.default_rng([seed, t]) for t in range(40))):
        pass
    assert table.fidelities
    for key, got in table.fidelities.items():
        assert _fidelity_bits(got) == _fidelity_bits(displaced_line_fidelities(table, *key))
    # corrections no trial drew: shifts and kicks on every mode
    rng = np.random.default_rng(seed)
    for _ in range(6):
        key = (int(rng.integers(len(table.tuples))), int(rng.integers(code.mode_count)),
               int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        assert (_fidelity_bits(table._corrected_fidelities(*key))
                == _fidelity_bits(displaced_line_fidelities(table, *key)))


@settings(max_examples=25, deadline=None)
@given(
    mode=hs.integers(0, 4),
    shift=hs.integers(-2, 2),
    kick=hs.integers(-2, 2),
    index=hs.integers(0, 7),
)
def test_braunstein5_recovers_random_single_mode_displacements(mode, shift, kick, index):
    grid = GridSpec(8, 5)
    report = run_qec_cycle(
        eigenstate(8, index), build_braunstein5(),
        ErrorSpec.displacement(mode, shift, kick * grid.dx),
        MeasurementModel.exact(), np.random.default_rng(0), grid=grid,
    )
    assert report.post_correction_fidelity >= 1 - 1e-9
    assert report.logical_fidelity >= 1 - 1e-9
    assert report.correction_applied == (shift != 0 or kick != 0)


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


@pytest.mark.parametrize("mode", [-1, 3, 9])
def test_analytic_layer_refuses_an_error_mode_outside_the_code(mode):
    code, grid, psi = build_repetition3(), GridSpec(16, 1), eigenstate(16, 8)
    message = rf"mode {mode} out of range \[0, 3\)"
    with pytest.raises(GridError, match=message):
        estimator_gain(code, mode)
    for model in (MeasurementModel.gaussian(0.3), MeasurementModel.exact()):
        with pytest.raises(GridError, match=message):
            residual_shift_distribution(code, model, grid, mode)
        with pytest.raises(GridError, match=message):
            decoherence_prediction(psi, model, code, grid, error_mode=mode)


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


@pytest.mark.parametrize("n", [8, 32, 64])
def test_decoherence_prediction_bytes_match_the_rolled_sum(n):
    # the gathered shifts accumulate rho in the same k order, one shift at a
    # time, so every entry keeps its bits; a -0.0 amplitude reaches the
    # products' signed zeros
    rng = np.random.default_rng(n)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi[1] = complex(-0.0, 0.0)
    psi /= np.linalg.norm(psi)
    grid, code = GridSpec(n, 1), build_repetition3()
    for sigma_dx in (0.0, 0.3, 0.5, 1.0, 2.0, 4.0, 16.0):
        for reps in (1, 3):
            model = MeasurementModel.gaussian(sigma_dx * grid.dx, reps)
            p = residual_shift_distribution(code, model, grid)
            want = rolled_decoherence_prediction(psi, p)
            assert decoherence_prediction(psi, model, code, grid).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    half_n=hs.integers(2, 1024),
    code_name=hs.sampled_from(["repetition3", "braunstein5", "shor9"]),
    mode_pick=hs.integers(0, 8),
    sigma_dx=(hs.sampled_from([0.0, 1e-300, 1e-12, 1e6, 1e100, 1e300])
              | hs.floats(0.01, 50.0)),
    reps=hs.integers(1, 9),
)
@example(half_n=1024, code_name="repetition3", mode_pick=0, sigma_dx=16.0, reps=1)
@example(half_n=2, code_name="braunstein5", mode_pick=3, sigma_dx=0.0, reps=9)
@example(half_n=2, code_name="repetition3", mode_pick=0, sigma_dx=16.0, reps=1)  # wrap order
def test_residual_shift_distribution_matches_the_looped_bins(half_n, code_name, mode_pick,
                                                             sigma_dx, reps):
    # each shared erf edge is evaluated once, and the five wraps of a bin are
    # still added in wrap order, so every entry keeps its bits
    n = 2 * half_n
    grid, code = GridSpec(n, 1), get_code(code_name)
    mode = mode_pick % code.mode_count
    model = MeasurementModel.gaussian(sigma_dx * grid.dx, reps)
    want = looped_residual_shift_distribution(estimator_gain(code, mode), model.sigma, reps, n,
                                              grid.dx)
    assert residual_shift_distribution(code, model, grid, mode).tobytes() == want.tobytes()


def test_erf_is_exactly_one_wherever_the_distribution_skips_it():
    # _shift_distribution calls math.erf only on edges with |x| < 6 and
    # takes the others' sign; every edge of these grids and widths, and a
    # dense sweep of [6, 40], must give that sign exactly
    xs = np.linspace(6.0, 40.0, 200_001).tolist() + [1e3, 1e300, math.inf]
    for n in (4, 32, 2048):
        grid, c0 = GridSpec(n, 1), n // 2
        for sigma_dx in (1e-3, 0.1, 0.5, 1.0, 3.0):
            scale = grid.dx / (sigma_dx * grid.dx * math.sqrt(2.0))
            xs += [(e - 0.5) * scale for e in range(-c0 - 2 * n, -c0 + 3 * n + 1)]
    far = [x for x in xs if abs(x) >= 6]
    assert len(far) > 200_000
    assert all(math.erf(x) == math.copysign(1.0, x) for x in far)
    assert all(math.erf(-x) == -math.copysign(1.0, x) for x in far)

@pytest.mark.parametrize("n", [8, 32, 64])
def test_sweep_predictions_equal_one_decoherence_prediction_per_model(n):
    # a sweep computes its analytic column for every sigma at once
    rng = np.random.default_rng(n)
    grid = GridSpec(n, 1)
    dense = rng.normal(size=n) + 1j * rng.normal(size=n)
    dense[1] = complex(-0.0, 0.0)
    dense /= np.linalg.norm(dense)
    models = [MeasurementModel.gaussian(s * grid.dx, reps)
              for s in (0.0, 0.3, 1.0, 4.0) for reps in (1, 3)]
    for psi in (eigenstate(n, n // 2 + 1), two_peak(n, n // 4), dense):
        for code, mode in ((build_repetition3(), 0), (build_repetition3(), 2),
                           (build_braunstein5(), 3)):
            want = [float(np.real(psi.conj() @ decoherence_prediction(psi, m, code, grid, mode)
                                  @ psi)) for m in models]
            got = syndrome_module._predicted_logical_fidelities(psi, models, code, grid, mode)
            assert got == want


def test_decoherence_prediction_refuses_a_wavefunction_of_another_length():
    with pytest.raises(GridError, match="wavefunction length 8 != grid size 16"):
        decoherence_prediction(eigenstate(8, 4), MeasurementModel.gaussian(1.0),
                               build_repetition3(), GridSpec(16, 1))


@settings(max_examples=80, deadline=None)
@given(
    m=hs.integers(2, 5),
    steps=hs.lists(hs.tuples(hs.sampled_from(["F", "Finv", "Sum", "SumInv"]),
                             hs.integers(0, 4), hs.integers(1, 4)), min_size=1, max_size=8),
)
@example(m=5, steps=[])
def test_plan_frame_equals_the_three_walk_route(m, steps):
    # one walk of the inverse encoder gives S^-1 and Q; G comes from S, the
    # symplectic inverse of S^-1, instead of a walk of the encoder itself
    try:
        code = (build_braunstein5() if not steps
                else CodeSpec.from_encoder("random", circuit_from_steps(m, steps)))
        plan = build_syndrome_circuit(code)
    except (ValueError, SyndromeCircuitError):
        reject()
    s = circuit_symplectic(code.encoder).matrix
    g = np.round((plan.forms @ s)[:, list(code.ancilla_modes)]).astype(np.int64)
    assert plan.ancilla_map.dtype == np.int64 and np.array_equal(plan.ancilla_map, g)
    assert plan.decoded_shift.dtype == np.int64
    assert np.array_equal(plan.decoded_shift, encoder_images(code.encoder))
    assert plan.phase_form.dtype == np.int64
    assert np.array_equal(plan.phase_form, weyl_phase_form(code.encoder.inverse()))


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
