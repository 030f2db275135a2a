import dataclasses
import json
import math

import numpy as np
import pytest

from cvqec import codes, experiments, symplectic, syndrome
from cvqec.experiments import ConfigError, SweepConfig, logical_wavefunction
from cvqec.grid import GridError, GridSpec, fidelity
from oracle_helpers import trial_fields

BASE = {"code": "repetition3", "grid_n": 8, "sigmas": [0.0, 1.0], "trials": 2, "seed": 1}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_sweep_config_rejects_bad_sigma(bad):
    with pytest.raises(ConfigError, match="finite"):
        SweepConfig(code="repetition3", grid_n=8, sigmas=[0.0, bad], trials=2, seed=1)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-1"])
def test_sweep_config_json_rejects_bad_sigma(literal):
    text = json.dumps(BASE).replace("[0.0, 1.0]", f"[0.0, {literal}]")
    with pytest.raises(ConfigError, match="finite"):
        SweepConfig.from_json(text)


def test_sweep_config_json_accepts_valid_sigmas():
    assert SweepConfig.from_json(json.dumps(BASE)).sigmas == [0.0, 1.0]


@pytest.mark.parametrize("error", [
    {"kind": "displacement", "mode": 0, "shift": 1, "kick": math.nan},
    {"kind": "displacement", "mode": 0, "shift": 1, "kick": math.inf},
    {"kind": "convolution", "mode": 0, "kernel_width": math.nan},
    {"kind": "convolution", "mode": 0, "kernel_width": math.inf},
    {"kind": "convolution", "mode": 0, "kernel_width": 0.0},
    {"kind": "convolution", "mode": 0, "kernel_width": -1.0},
    {"kind": "displacement", "mode": 0, "shift": 1.5},
    {"kind": "displacement", "mode": 0, "shfit": 2},
    {"kind": "none", "mode": 0},
    {"kind": "convolution", "mode": 0, "kernel_width": 1.0, "shift": 1},
    "displacement",
])
def test_sweep_config_rejects_bad_error(error):
    with pytest.raises(ConfigError, match="bad error spec"):
        SweepConfig(**BASE, error=error)
    with pytest.raises(ConfigError):
        SweepConfig.from_json(json.dumps({**BASE, "error": error}))


@pytest.mark.parametrize("modes", [7, "0", ["a"], [0.5], [True], [0, None]])
def test_sweep_config_rejects_bad_decode_modes(modes):
    with pytest.raises(ConfigError, match="decode_modes must be a list of ints"):
        SweepConfig(**BASE, decode_modes=modes)
    with pytest.raises(ConfigError, match="decode_modes must be a list of ints"):
        SweepConfig.from_json(json.dumps({**BASE, "decode_modes": modes}))


@pytest.mark.parametrize("modes", [None, [], [0], [0, 2]])
def test_sweep_config_accepts_list_of_int_decode_modes(modes):
    assert SweepConfig(**BASE, decode_modes=modes).decode_modes == modes


@pytest.mark.parametrize("key,value", [
    ("trials", 2.5), ("grid_n", 8.9), ("seed", 1.5), ("repetitions", 1.5),
    ("trials", True), ("grid_n", True), ("seed", False), ("repetitions", True),
    ("trials", "2"),
])
def test_sweep_config_refuses_non_integer_counts(key, value):
    # these used to be truncated (2.5 -> 2, true -> 1) into a plausible CSV
    with pytest.raises(ConfigError, match=f"{key} must be an integer, got {value!r}"):
        SweepConfig(**{**BASE, key: value})
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        SweepConfig.from_json(json.dumps({**BASE, key: value}))


@pytest.mark.parametrize("seed", [2**64, -1])
def test_sweep_config_refuses_seed_outside_64_bits(seed):
    # trial_rng keys on the low 64 bits: 2**64 used to replay seed 0's trials
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
        SweepConfig(**{**BASE, "seed": seed})
    assert SweepConfig(**{**BASE, "seed": seed % 2**64}).seed == seed % 2**64


def test_sweep_config_accepts_integral_floats_as_ints():
    config = SweepConfig.from_json(json.dumps({**BASE, "grid_n": 8.0, "trials": 2.0}))
    assert (config.grid_n, config.trials) == (8, 2)
    assert type(config.grid_n) is int and type(config.trials) is int


def test_sweep_config_refuses_empty_sigmas():
    with pytest.raises(ConfigError, match="sigmas must not be empty"):
        SweepConfig.from_json(json.dumps({**BASE, "sigmas": []}))


@pytest.mark.parametrize("error", [
    {"kind": "displacement", "mode": 1.5, "shift": 1},
    {"kind": "displacement", "mode": True, "shift": 1},
    {"kind": "convolution", "mode": 1.5, "kernel_width": 1.0},
    {"kind": "displacement", "mode": 0, "shift": True},
])
def test_sweep_config_refuses_non_integer_error_fields(error):
    with pytest.raises(ConfigError, match="must be an integer"):
        SweepConfig(**BASE, error=error)


@pytest.mark.parametrize("spec,message", [
    ({"kind": "eigenstate", "index": 3.7}, "logical index must be an integer"),
    ({"kind": "eigenstate", "index": True}, "logical index must be an integer"),
    ({"kind": "two_peak", "separation": 2.5}, "separation must be an integer"),
    ({"kind": "eigenstate", "idx": 3}, r"unknown logical key\(s\) \['idx'\]"),
    ({"index": 2, "separation": 2}, r"\['separation'\] for kind 'eigenstate'"),
    ({"kind": "custom", "amplitudes": [[1, 0]] * 7}, "list of 8 .re, im. pairs"),
    ({"kind": "custom", "amplitudes": [[math.inf, 0]] * 8}, "finite nonzero norm"),
])
def test_logical_spec_refuses_non_integer_fields(spec, message):
    with pytest.raises(ConfigError, match=message):
        logical_wavefunction(spec, GridSpec(8, 1))


def test_custom_logical_is_normalized():
    psi = logical_wavefunction({"kind": "custom", "amplitudes": [[3, 0], [0, 4]] + [[0, 0]] * 6},
                               GridSpec(8, 1))
    assert np.allclose(psi, [0.6, 0.8j] + [0] * 6, atol=1e-15)


SWEEP_ROUTES = [
    {"code": "repetition3", "grid_n": 16, "sigmas": [0.0, 1.0], "trials": 4, "seed": 9,
     "repetitions": 2, "logical": {"kind": "two_peak", "separation": 4},
     "error": {"kind": "displacement", "mode": 0, "shift": 2}, "decode_modes": [0]},
    {"code": "braunstein5", "grid_n": 8, "sigmas": [0.0, 0.5], "trials": 3, "seed": 3,
     "error": {"kind": "convolution", "mode": 2, "kernel_width": 0.8}},
    {"code": "shor9", "grid_n": 4, "sigmas": [0.0, 0.5], "trials": 2, "seed": 5,
     "error": {"kind": "displacement", "mode": 4, "shift": 1, "kick": 0.5}},
]


def _dense_trial_rows(config: SweepConfig) -> list[tuple]:
    """Trial rows of ``run_sweep``, from ``run_qec_cycle`` with the dense
    reference and the N^M grid."""
    code = codes.get_code(config.code)
    grid = GridSpec(config.grid_n, code.mode_count)
    psi = logical_wavefunction(config.logical, GridSpec(config.grid_n, 1))
    error = experiments.error_from_config(config.error, grid.dx)
    reference = codes.encode(psi, code, grid)
    rows = []
    for si, sigma_dx in enumerate(sorted(config.sigmas)):
        model = syndrome.MeasurementModel.gaussian(sigma_dx * grid.dx, config.repetitions)
        for t in range(config.trials):
            report = syndrome.run_qec_cycle(
                psi, code, error, model, experiments.trial_rng(config.seed, si, t),
                grid=grid, decode_modes=config.decode_modes, reference=reference,
            )
            rows.append((sigma_dx * grid.dx, config.repetitions, t,
                         report.post_correction_fidelity, report.logical_fidelity))
    return rows


@pytest.mark.parametrize("spec", SWEEP_ROUTES, ids=lambda s: s["code"])
def test_sweep_touches_no_dense_state(monkeypatch, spec):
    config = SweepConfig(**spec)
    expected = _dense_trial_rows(config)

    def dense(*args, **kwargs):
        raise AssertionError("a sweep trial touched the N^M tensor")

    for module, name in [(codes, "encode"), (syndrome, "encode"),
                         (syndrome, "apply_error"), (syndrome, "fidelity")]:
        monkeypatch.setattr(module, name, dense)
    trial_rows: list[tuple] = []
    experiments.run_sweep(config, trial_rows=trial_rows)
    assert trial_rows == expected


#: More sweeps for the outcome table than the dense comparison above can hold:
#: braunstein5 at N=64 is 64**5 amplitudes, so these are checked against the
#: untabulated frame trial instead.
TABLE_SWEEP_ROUTES = SWEEP_ROUTES + [
    {"code": "braunstein5", "grid_n": 64, "sigmas": [0.0, 0.5, 2.0], "trials": 12, "seed": 4,
     "error": {"kind": "displacement", "mode": 3, "shift": 2, "kick": 1.37},
     "decode_modes": None},
    {"code": "repetition3", "grid_n": 32, "sigmas": [0.0, 0.5, 1.0, 2.0], "trials": 25,
     "seed": 21, "repetitions": 3, "logical": {"kind": "two_peak", "separation": 8},
     "error": {"kind": "displacement", "mode": 0, "shift": -3}, "decode_modes": [0]},
]


@pytest.mark.parametrize("spec", TABLE_SWEEP_ROUTES,
                         ids=lambda s: f"{s['code']}-n{s['grid_n']}")
def test_sweep_trials_equal_untabulated_frame_trials(monkeypatch, spec):
    config = SweepConfig(**spec)
    code = codes.get_code(config.code)
    grid = GridSpec(config.grid_n, 1)
    psi = logical_wavefunction(config.logical, grid)
    error = experiments.error_from_config(config.error, grid.dx)
    plan = syndrome.build_syndrome_circuit(code)
    expected, expected_trials = [], []
    for si, sigma_dx in enumerate(sorted(config.sigmas)):
        model = syndrome.MeasurementModel.gaussian(sigma_dx * grid.dx, config.repetitions)
        for t in range(config.trials):
            # a fresh one-trial table memoizes nothing: the untabulated reference
            fresh = syndrome._OutcomeTable(psi, code, error, plan, grid, config.decode_modes)
            trial = fresh.trial(model, experiments.trial_rng(config.seed, si, t))
            expected_trials.append(trial_fields(trial))
            full, logical, *_ = trial
            expected.append((sigma_dx * grid.dx, config.repetitions, t, full, logical))
    seen = []
    tabulated = syndrome._OutcomeTable.trials

    def recorded(self, model, rngs):
        for batch in tabulated(self, model, rngs):
            seen.extend(trial_fields(batch.row(i)) for i in range(len(batch.post)))
            yield batch

    monkeypatch.setattr(syndrome._OutcomeTable, "trials", recorded)
    trial_rows: list[tuple] = []
    experiments.run_sweep(config, trial_rows=trial_rows)
    assert trial_rows == expected
    assert seen == expected_trials


CHUNK_SWEEP_ROUTES = [
    {"code": "repetition3", "grid_n": 32, "sigmas": [2.0, 0.0, 0.5, 1.0], "trials": 10,
     "seed": 21, "repetitions": 3, "logical": {"kind": "two_peak", "separation": 8},
     "error": {"kind": "displacement", "mode": 0, "shift": -3}, "decode_modes": [0]},
    {"code": "braunstein5", "grid_n": 8, "sigmas": [0.5, 0.0, 1.5], "trials": 9, "seed": 3,
     "repetitions": 2, "error": {"kind": "convolution", "mode": 2, "kernel_width": 0.8}},
]


@pytest.mark.parametrize("spec", CHUNK_SWEEP_ROUTES, ids=lambda s: s["code"])
def test_sweep_chunks_that_span_sigmas_give_the_per_sigma_rows(monkeypatch, spec):
    # seven trials a chunk, so chunk edges fall inside sigmas and one chunk
    # mixes noise-free trials with noisy ones
    config = SweepConfig(**spec)
    code = codes.get_code(config.code)
    grid = GridSpec(config.grid_n, 1)
    psi = logical_wavefunction(config.logical, grid)
    error = experiments.error_from_config(config.error, grid.dx)
    plan = syndrome.build_syndrome_circuit(code)
    expected, expected_rows = [], []
    for si, sigma_dx in enumerate(sorted(config.sigmas)):
        sigma = sigma_dx * grid.dx
        model = syndrome.MeasurementModel.gaussian(sigma, config.repetitions)
        full, logical = [], []
        for t in range(config.trials):
            fresh = syndrome._OutcomeTable(psi, code, error, plan, grid, config.decode_modes)
            post, logical_fid, *_ = fresh.trial(model, experiments.trial_rng(config.seed, si, t))
            full.append(post)
            logical.append(logical_fid)
            expected.append((sigma, config.repetitions, t, post, logical_fid))
        analytic = None
        if code.name == "repetition3":
            rho = syndrome.decoherence_prediction(psi, model, code, grid, error.mode)
            analytic = float(np.real(psi.conj() @ rho @ psi))
        full, logical = np.array(full), np.array(logical)
        expected_rows.append(experiments.SweepRow(
            sigma=sigma, repetitions=config.repetitions, trials=config.trials,
            mean_fidelity=float(full.mean()), std_fidelity=float(full.std(ddof=0)),
            mean_logical_fidelity=float(logical.mean()),
            std_logical_fidelity=float(logical.std(ddof=0)),
            analytic_logical_fidelity=analytic,
        ))
    sizes = []
    tabulated = syndrome._OutcomeTable.trials

    def sized(self, models, rngs):
        for batch in tabulated(self, models, rngs):
            sizes.append(len(batch.post))
            yield batch

    monkeypatch.setattr(syndrome, "_TRIAL_CHUNK", 7)
    monkeypatch.setattr(syndrome._OutcomeTable, "trials", sized)
    trial_rows: list[tuple] = []
    rows = experiments.run_sweep(config, trial_rows=trial_rows)
    total = len(config.sigmas) * config.trials
    assert sizes == [7] * (total // 7) + [total % 7]
    assert trial_rows == expected
    assert rows == expected_rows


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 3, 2**32 - 1])
def test_rekeyed_trial_streams_equal_trial_rng(seed, stream):
    # each trial's draws: one double, its (K, repetitions) normals, one more
    # double; every shape leaves the Philox buffer somewhere else
    trials = [0, 7, 2**32 - 1]
    for k, reps in [(1, 1), (2, 3), (4, 9), (8, 2), (3, 9)]:
        for t, rng in zip(trials, experiments._trial_streams(seed, stream, trials)):
            fresh = experiments.trial_rng(seed, stream, t)
            assert rng.random() == fresh.random()
            assert (rng.normal(0.0, 0.7, size=(k, reps)).tobytes()
                    == fresh.normal(0.0, 0.7, size=(k, reps)).tobytes())
            assert rng.random() == fresh.random()



def test_one_generator_serves_every_stream_of_a_sweep(monkeypatch):
    seed, streams, trials = 2**64 - 1, [0, 3, 2**32 - 1], [0, 7, 2**32 - 1]
    keys = [(si, t) for si in streams for t in trials]
    for (si, t), rng in zip(keys, experiments._trial_streams(seed, streams, trials),
                            strict=True):
        fresh = experiments.trial_rng(seed, si, t)
        assert rng.random() == fresh.random()
        assert rng.normal(size=(3, 2)).tobytes() == fresh.normal(size=(3, 2)).tobytes()
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    experiments.run_sweep(SweepConfig(**{**BASE, "sigmas": [0.0, 0.5, 1.0, 2.0]}))
    assert len(built) == 1


def _sweep_bytes(config: SweepConfig) -> tuple[str, str, bytes]:
    """The sweep's CSV, its trial CSV and every trial row's floats as bytes."""
    trial_rows: list[tuple] = []
    rows = experiments.run_sweep(config, trial_rows=trial_rows)
    floats = np.array([row[3:] for row in trial_rows]).tobytes()
    return (experiments.sweep_rows_to_csv(rows),
            experiments.trial_rows_to_csv(config, trial_rows), floats)


def test_per_code_objects_go_by_identity_not_equality(monkeypatch):
    built = codes.build_repetition3()
    # equal to the built-in code, which reads three cyclic differences, but
    # reading its two nullifier rows
    twin = dataclasses.replace(built, readout_forms=tuple(n.coeffs for n in built.nullifiers))
    assert twin == built
    plan, twin_plan = syndrome._code_plan(built), syndrome._code_plan(twin)
    assert syndrome._code_plan(built) is plan and syndrome._code_plan(twin) is twin_plan
    assert plan.forms.shape == (3, 6) and twin_plan.forms.shape == (2, 6)
    decoder = symplectic._code_decoder(built, plan.forms, [0], math.inf)
    twin_decoder = symplectic._code_decoder(twin, twin_plan.forms, [0], math.inf)
    assert symplectic._code_decoder(built, plan.forms.copy(), [0], math.inf) is decoder
    assert twin_decoder is not decoder
    row, twin_row = syndrome._estimator_row(built, 0), syndrome._estimator_row(twin, 0)
    assert syndrome._estimator_row(built, 0) is row and len(row) == 3 and len(twin_row) == 2
    # the reused arrays are read-only
    shared = [plan.forms, plan.ancilla_map, plan.decoded_shift, plan.phase_form,
              decoder.ops, decoder.modes, row]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7
    # the twin's sweep: its own bytes, the same after the built-in code ran
    config = SweepConfig(code="repetition3", grid_n=16, sigmas=[0.0, 0.7, 1.5], trials=30,
                         seed=11, logical={"kind": "two_peak", "separation": 4},
                         error={"kind": "displacement", "mode": 0, "shift": 2})
    monkeypatch.setattr(experiments, "get_code", lambda name: twin)
    twin_bytes = _sweep_bytes(config)
    monkeypatch.setattr(experiments, "get_code", codes.get_code)
    built_bytes = _sweep_bytes(config)
    assert twin_bytes[0] != built_bytes[0] and twin_bytes[2] != built_bytes[2]
    fresh = dataclasses.replace(built, readout_forms=twin.readout_forms)
    monkeypatch.setattr(experiments, "get_code", lambda name: fresh)
    assert _sweep_bytes(config) == twin_bytes


def test_a_sweep_keeps_its_bytes_after_other_codes_reuse_their_objects():
    config = SweepConfig(code="braunstein5", grid_n=8, sigmas=[0.0, 0.5, 1.5], trials=40,
                         seed=9, repetitions=2,
                         error={"kind": "convolution", "mode": 2, "kernel_width": 0.8})
    first = _sweep_bytes(config)
    for name, mode in (("repetition3", 1), ("shor9", 4)):
        _sweep_bytes(SweepConfig(code=name, grid_n=8, sigmas=[0.0, 1.0], trials=20, seed=3,
                                 error={"kind": "displacement", "mode": mode, "shift": 1}))
    for code in map(codes.get_code, codes.BUILTIN_CODES):
        grid = GridSpec(4 if code.mode_count > 5 else 8, code.mode_count)
        psi = np.zeros(grid.n_points, dtype=np.complex128)
        psi[grid.center_index] = 1.0
        error = syndrome.ErrorSpec.displacement(code.mode_count - 1, 1, grid.dx)
        model = syndrome.MeasurementModel.gaussian(0.5 * grid.dx)
        report = syndrome.run_qec_cycle(psi, code, error, model, np.random.default_rng(1),
                                        grid=grid, decode_modes=[code.mode_count - 1])
        assert report.syndrome.forms is syndrome._code_plan(code).forms
        damaged = syndrome.apply_error(codes.encode(psi, code, grid), error)
        record, collapsed = syndrome.extract_syndrome(damaged, code, model,
                                                      np.random.default_rng(2))
        syndrome.correct(collapsed, code, record)
        syndrome.correct(collapsed, code, record, decode_modes=[0], strict=True)
    assert _sweep_bytes(config) == first

def test_noise_free_sweep_decodes_each_outcome_once(monkeypatch):
    # a convolution spreads the draw over several ancilla tuples; at sigma 0
    # each tuple's record is fixed, so its decode is memoized
    config = SweepConfig(code="braunstein5", grid_n=8, sigmas=[0.0], trials=200, seed=5,
                         error={"kind": "convolution", "mode": 2, "kernel_width": 0.8})
    decoded = []
    decode = symplectic._StackDecoder.decode

    def counted(self, syndromes):
        decoded.extend(row.tobytes() for row in np.asarray(syndromes))
        return decode(self, syndromes)

    monkeypatch.setattr(symplectic._StackDecoder, "decode", counted)
    trial_rows: list[tuple] = []
    experiments.run_sweep(config, trial_rows=trial_rows)
    assert len(trial_rows) == config.trials
    assert 1 < len(decoded) == len(set(decoded)) < config.trials


def _dense_stage_rows(config: SweepConfig) -> list[experiments.SweepRow]:
    """``run_sweep``'s rows from the dense public stages, composed per trial
    and aggregated the way the benchmark's ``rep3-sweep`` replay does it:
    exact readout at sigma 0, the logical fidelity and the analytic column
    as psi^dag rho psi."""
    code = codes.get_code(config.code)
    grid = GridSpec(config.grid_n, code.mode_count)
    logical_grid = GridSpec(config.grid_n, 1)
    psi = logical_wavefunction(config.logical, logical_grid)
    error = experiments.error_from_config(config.error, grid.dx)
    reference = codes.encode(psi, code, grid)
    plan = syndrome.build_syndrome_circuit(code)
    rows = []
    for si, sigma_dx in enumerate(sorted(config.sigmas)):
        sigma = sigma_dx * grid.dx
        model = (syndrome.MeasurementModel.exact() if sigma == 0
                 else syndrome.MeasurementModel.gaussian(sigma, config.repetitions))
        full, logical = [], []
        for t in range(config.trials):
            rng = experiments.trial_rng(config.seed, si, t)
            damaged = syndrome.apply_error(reference, error)
            record, collapsed = syndrome.extract_syndrome(damaged, code, model, rng, plan=plan)
            result = syndrome.correct(collapsed, code, record, decode_modes=config.decode_modes)
            full.append(fidelity(result.state, reference))
            rho = syndrome.decoded_logical_density(result.state, code)
            logical.append(float(np.real(psi.conj() @ rho @ psi)))
        rho = syndrome.decoherence_prediction(psi, model, code, logical_grid, error.mode)
        full, logical = np.array(full), np.array(logical)
        rows.append(experiments.SweepRow(
            sigma=sigma, repetitions=config.repetitions, trials=config.trials,
            mean_fidelity=float(full.mean()), std_fidelity=float(full.std(ddof=0)),
            mean_logical_fidelity=float(logical.mean()),
            std_logical_fidelity=float(logical.std(ddof=0)),
            analytic_logical_fidelity=float(np.real(psi.conj() @ rho @ psi)),
        ))
    return rows


@pytest.mark.parametrize("shift, seed", [(2, 7), (-3, 1_234_567), (1, 2**31 - 1)])
def test_rep3_sweep_rows_equal_the_dense_stage_replay(shift, seed):
    # the benchmark's traced rep3-sweep run compares these rows with ==; a
    # sweep change that moves one bit leaves it without a matching op
    config = SweepConfig(
        code="repetition3", grid_n=32, sigmas=[0.0, 0.5, 1.0, 2.0], trials=25, seed=seed,
        logical={"kind": "two_peak", "separation": 8},
        error={"kind": "displacement", "mode": 0, "shift": shift}, decode_modes=[0],
    )
    assert experiments.run_sweep(config) == _dense_stage_rows(config)


def test_decoherence_prediction_refuses_matrix_over_budget():
    n = 5832  # 5832**2 just exceeds MAX_AMPLITUDES
    psi = np.zeros(n, dtype=np.complex128)
    psi[n // 2] = 1.0
    with pytest.raises(GridError, match="exceeds the amplitude budget"):
        syndrome.decoherence_prediction(psi, syndrome.MeasurementModel.gaussian(1.0))
