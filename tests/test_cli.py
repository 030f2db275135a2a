import json
import warnings

import numpy as np
import pytest

from cvqec.cli import main
from cvqec import GridError, GridSpec, load_state
from cvqec.experiments import error_from_config


def run_cli(args):
    return main(args)


def test_encode_writes_one_hot_state(tmp_path, capsys):
    out = tmp_path / "enc"
    code = run_cli(["encode", "--code", "repetition3", "--grid-n", "16",
                    "--logical-index", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nonzero"] == 1
    state = load_state(out)
    assert state.tensor[8, 8, 8] == 1.0


def test_inject_then_decode_roundtrip(tmp_path, capsys):
    enc = tmp_path / "enc"
    bad = tmp_path / "bad"
    assert run_cli(["encode", "--code", "repetition3", "--grid-n", "16",
                    "--logical-index", "8", "--out", str(enc)]) == 0
    assert run_cli(["inject", "--in", str(enc), "--out", str(bad),
                    "--mode", "1", "--shift", "2"]) == 0
    capsys.readouterr()
    assert run_cli(["decode", "--code", "repetition3", "--in", str(bad),
                    "--reference", str(enc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["correction_applied"] is True
    assert payload["inferred_error"]["mode"] == 1
    assert payload["post_correction_fidelity"] >= 1 - 1e-9


def test_unknown_code_is_usage_error(tmp_path, capsys):
    assert run_cli(["encode", "--code", "nope", "--grid-n", "8",
                    "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_is_usage_error(capsys):
    assert run_cli(["transpile", "--in", "/does/not/exist.json", "--enumerate"]) == 2
    assert "not found" in capsys.readouterr().err


def test_check_braunstein5_passes(capsys):
    assert run_cli(["check", "--code", "braunstein5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True


def test_check_repetition_momentum_fails(capsys):
    assert run_cli(["check", "--code", "repetition3", "--errors", "momentum"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is False


def test_cycle_reports_fidelity(capsys):
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8",
                    "--mode", "2", "--shift", "2", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["post_correction_fidelity"] >= 1 - 1e-9


def test_cycle_json_adds_the_decode_outcome_to_its_keys(capsys):
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8",
                    "--mode", "2", "--shift", "2", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["pre_error_fidelity", "post_correction_fidelity",
                             "logical_fidelity", "inferred_error", "correction_applied",
                             "syndrome", "decode_outcome"]
    assert payload["decode_outcome"] == "applied" and payload["correction_applied"] is True
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decode_outcome"] == "zero_correction"
    assert payload["correction_applied"] is False


def test_cycle_five_modes_at_standard_grid(capsys):
    # the standard five-mode operating point (N = 16, about 1M amplitudes)
    # runs end to end well inside the time budget
    import time

    t0 = time.time()
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "16",
                    "--mode", "4", "--shift", "-2", "--kick", "1",
                    "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["post_correction_fidelity"] >= 1 - 1e-9
    assert time.time() - t0 < 300


def test_sweep_per_trial_stream(tmp_path):
    cfg = sweep_config(tmp_path, trials=5, sigmas=(0.0, 1.0))
    out = tmp_path / "agg.csv"
    trials = tmp_path / "trials.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out),
                    "--trials-out", str(trials)]) == 0
    lines = trials.read_text().strip().splitlines()
    assert lines[0].startswith("code,error_kind,error_mode,sigma")
    assert len(lines) == 1 + 2 * 5  # two sigma points, five trials each
    first = lines[1].split(",")
    assert first[0] == "repetition3" and first[1] == "displacement"


def test_transpile_enumerate_writes_verdicts(tmp_path, capsys):
    out_dir = tmp_path / "tp"
    assert run_cli(["transpile", "--in", "builtin", "--enumerate",
                    "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    lines = (out_dir / "verdicts.csv").read_text().strip().splitlines()
    assert len(lines) == 17  # header + 16 assignments
    circuits = sorted(out_dir.glob("circuit_*.json"))
    assert circuits
    from cvqec import Circuit

    for path in circuits:
        circ = Circuit.from_json(path.read_text())
        assert circ.mode_count == 5
        assert circ.sum_type_count() == 7


def test_transpile_default_emits_stored_assignment(capsys):
    assert run_cli(["transpile", "--in", "builtin"]) == 0
    from cvqec import Circuit, build_braunstein5

    circ = Circuit.from_json(capsys.readouterr().out)
    assert circ == build_braunstein5().encoder


def sweep_config(tmp_path, trials=40, sigmas=(0.0, 1.0)):
    config = {
        "code": "repetition3",
        "grid_n": 16,
        "sigmas": list(sigmas),
        "trials": trials,
        "seed": 11,
        "repetitions": 1,
        "logical": {"kind": "two_peak", "separation": 4},
        "error": {"kind": "displacement", "mode": 0, "shift": 2},
        "decode_modes": [0],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_zero_noise_recovers_exactly(tmp_path):
    cfg = sweep_config(tmp_path, trials=10, sigmas=(0.0,))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["mean_fidelity"]) >= 1 - 1e-6
    assert float(row["analytic_logical_fidelity"]) >= 1 - 1e-12


def test_sweep_is_byte_deterministic_across_runs(tmp_path):
    cfg = sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_braunstein5_convolution_sweep_is_byte_deterministic_across_runs(tmp_path):
    # the repetition3 sweeps above meet no Fourier gate and no convolution
    config = {
        "code": "braunstein5", "grid_n": 8, "sigmas": [0.0, 0.5], "trials": 4, "seed": 3,
        "error": {"kind": "convolution", "mode": 2, "kernel_width": 0.7},
    }
    cfg = tmp_path / "b5.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for run in range(2):
        out, trials = tmp_path / f"s{run}.csv", tmp_path / f"t{run}.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out),
                        "--trials-out", str(trials)]) == 0
        outputs.append((out.read_bytes(), trials.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) == 1 + 2 * 4


def test_sweep_fidelity_not_increasing_in_sigma(tmp_path):
    cfg = sweep_config(tmp_path, trials=150, sigmas=(0.0, 1.0, 3.0))
    out = tmp_path / "c.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    fids = [float(r["mean_logical_fidelity"]) for r in rows]
    ses = [float(r["std_logical_fidelity"]) / np.sqrt(int(r["trials"])) for r in rows]
    for i in range(len(fids) - 1):
        assert fids[i + 1] <= fids[i] + 2 * (ses[i] + ses[i + 1])
    # analytic column tracks the Monte Carlo within a loose statistical bound
    for r in rows:
        gap = abs(float(r["analytic_logical_fidelity"]) - float(r["mean_logical_fidelity"]))
        assert gap < 0.1


def test_bad_sweep_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"code": "repetition3"}')
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    # the per-trial stream keys on the seed's low 64 bits, so 2**64 used to
    # print seed 0's CSVs and -1 those of 2**64 - 1
    out, trials = tmp_path / "s.csv", tmp_path / "t.csv"
    for seed in (2**64, -1):
        path.write_text(json.dumps({**SMALL_SWEEP, "seed": seed}))
        assert run_cli(["sweep", "--config", str(path), "--out", str(out),
                        "--trials-out", str(trials)]) == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists() and not trials.exists()


@pytest.mark.parametrize("command", ["encode", "cycle"])
@pytest.mark.parametrize("index", ["99", "-1"])
def test_out_of_range_logical_index_is_usage_error(tmp_path, capsys, command, index):
    argv = [command, "--code", "repetition3", "--grid-n", "8", "--logical-index", index]
    if command == "encode":
        argv += ["--out", str(tmp_path / "x")]
    assert run_cli(argv) == 2
    assert f"logical index {index} out of range" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_bad_sigma_is_usage_error(tmp_path, capsys, sigma):
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8",
                    "--shift", "1", "--sigma", sigma]) == 2
    assert "sigma must be finite and >= 0" in capsys.readouterr().err
    enc = tmp_path / "enc"
    assert run_cli(["encode", "--code", "repetition3", "--grid-n", "8",
                    "--out", str(enc)]) == 0
    capsys.readouterr()
    assert run_cli(["decode", "--code", "repetition3", "--in", str(enc),
                    "--sigma", sigma]) == 2
    assert "sigma must be finite and >= 0" in capsys.readouterr().err


def test_nan_sigma_in_sweep_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"code": "repetition3", "grid_n": 8, "sigmas": [0.0, NaN], '
                    '"trials": 2, "seed": 1}')
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "sigma must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--kick", "nan", "--shift", "1"], "momentum kick must be finite"),
    (["--kick", "inf", "--shift", "1"], "momentum kick must be finite"),
    (["--kernel-width", "nan"], "kernel width must be finite and > 0"),
    (["--kernel-width", "inf"], "kernel width must be finite and > 0"),
])
def test_non_finite_error_is_usage_error(tmp_path, capsys, flags, message):
    # a NaN kick or width used to reach the Born sampler and end in an IndexError
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", *flags]) == 2
    assert message in capsys.readouterr().err
    enc = tmp_path / "enc"
    assert run_cli(["encode", "--code", "repetition3", "--grid-n", "8",
                    "--out", str(enc)]) == 0
    capsys.readouterr()
    assert run_cli(["inject", "--in", str(enc), "--out", str(tmp_path / "bad"), *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    '{"kind": "displacement", "mode": 0, "shift": 1, "kick": NaN}',
    '{"kind": "convolution", "mode": 0, "kernel_width": NaN}',
])
def test_non_finite_error_in_sweep_config_is_usage_error(tmp_path, capsys, error):
    path = tmp_path / "nan.json"
    path.write_text('{"code": "repetition3", "grid_n": 8, "sigmas": [0.0], '
                    f'"trials": 2, "seed": 1, "error": {error}}}')
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["1e-300", "1e-200", "1e300"])
def test_kernel_width_without_a_finite_square_is_usage_error(tmp_path, capsys, width):
    # 1e-300 and 1e-200 used to give a NaN kernel and an IndexError in the
    # outcome table, 1e300 an OverflowError in gaussian_kernel
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8",
                    "--kernel-width", width]) == 2
    assert "kernel width must have a finite nonzero square" in capsys.readouterr().err
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({
        "code": "braunstein5", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1,
        "error": {"kind": "convolution", "mode": 0, "kernel_width": float(width)}}))
    trials = tmp_path / "trials.csv"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out),
                    "--trials-out", str(trials)]) == 2
    assert "kernel width must have a finite nonzero square" in capsys.readouterr().err
    assert not out.exists() and not trials.exists()


def test_kernel_width_refusal_quotes_the_width_as_typed(tmp_path, capsys):
    # the refusal used to quote the absolute width, 1e-300 * dx = 6.27e-301
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8",
                    "--kernel-width", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert "kernel width must have a finite nonzero square, got 1e-300" in err
    assert "6.2665706865775e-301" not in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "code": "braunstein5", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1,
        "error": {"kind": "convolution", "mode": 0, "kernel_width": 1e-300}}))
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "kernel width must have a finite nonzero square, got 1e-300" in capsys.readouterr().err
    with pytest.raises(GridError, match="got 1e-300"):
        error_from_config({"kind": "convolution", "mode": 0, "kernel_width": 1e-300},
                          GridSpec(8, 1).dx)



@pytest.mark.parametrize("width", ["-1", "-1e0"])
def test_negative_kernel_width_refusal_quotes_the_width_as_typed(capsys, width):
    # the refusal used to quote the absolute width, -1 * dx = -0.6266570686577501
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8",
                    "--kernel-width", width]) == 2
    err = capsys.readouterr().err
    assert "kernel width must be finite and > 0, got -1.0" in err
    assert "0.6266" not in err


def test_negative_kernel_width_in_a_sweep_config_quotes_the_width_as_typed(tmp_path, capsys):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({
        "code": "repetition3", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1,
        "error": {"kind": "convolution", "mode": 0, "kernel_width": -1}}))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kernel width must be finite and > 0, got -1.0" in err
    assert "0.6266" not in err
    assert not out.exists()

@pytest.mark.parametrize("entry,message", [
    ({"sigmas": [True]}, "sigma must be a number, got True"),
    ({"sigmas": [0.0, "0.5"]}, "sigma must be a number, got '0.5'"),
    ({"error": {"kind": "displacement", "mode": 0, "shift": 1, "kick": True}},
     "kick must be a number, got True"),
    ({"error": {"kind": "convolution", "mode": 0, "kernel_width": True}},
     "kernel_width must be a number, got True"),
])
def test_boolean_float_in_sweep_config_is_usage_error(tmp_path, capsys, entry, message):
    # a JSON true used to be read as 1 dx and the sweep exited 0
    config = {"code": "repetition3", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, **entry}))
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["9", "-1"])
def test_out_of_range_decode_mode_is_usage_error(capsys, mode):
    # 9 used to end in an IndexError, -1 in a silent decode reporting mode -1
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", "--shift", "1",
                    "--decode-mode", mode]) == 2
    assert f"decode mode(s) [{mode}] out of range [0, 3)" in capsys.readouterr().err


def test_out_of_range_decode_mode_in_sweep_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "modes.json"
    path.write_text('{"code": "repetition3", "grid_n": 8, "sigmas": [0.0], '
                    '"trials": 2, "seed": 1, "decode_modes": [7]}')
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "decode mode(s) [7] out of range" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"code": "shor9", "grid_n": 8, "sigmas": [0.0, 0.5], "trials": 3, "seed": 2,
     "error": {"kind": "displacement", "mode": 4, "shift": 1}},
    {"code": "braunstein5", "grid_n": 256, "sigmas": [0.0, 0.5], "trials": 3, "seed": 2,
     "error": {"kind": "convolution", "mode": 2, "kernel_width": 0.8}},
], ids=["shor9-n8", "braunstein5-n256"])
def test_sweep_runs_above_dense_state_budget(tmp_path, config):
    # N^M is 8**9 and 256**5, over MAX_AMPLITUDES; sweeps used to exit 2
    path, out = tmp_path / "big.json", tmp_path / "big.csv"
    path.write_text(json.dumps(config))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 0
    header, first = out.read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert float(row["sigma"]) == 0
    assert float(row["mean_fidelity"]) == 1


@pytest.mark.parametrize("mode", [3, 9, -1])
def test_out_of_range_error_mode_in_sweep_config_is_usage_error(tmp_path, capsys, mode):
    path, out, trials = tmp_path / "mode.json", tmp_path / "s.csv", tmp_path / "t.csv"
    path.write_text(json.dumps({**SMALL_SWEEP, "error": {
        "kind": "displacement", "mode": mode, "shift": 1}}))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out),
                    "--trials-out", str(trials)]) == 2
    assert f"mode {mode} out of range [0, 3)" in capsys.readouterr().err
    assert not out.exists() and not trials.exists()


def test_sweep_noise_too_wide_to_round_is_usage_error(tmp_path, capsys):
    # 1e19 dx of readout noise infers shifts past 2**53 grid steps; the
    # int64 cast used to warn, and the sweep printed logical fidelity 0
    path, out, trials = tmp_path / "wide.json", tmp_path / "s.csv", tmp_path / "t.csv"
    path.write_text(json.dumps({**SMALL_SWEEP, "sigmas": [1e19]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["sweep", "--config", str(path), "--out", str(out),
                        "--trials-out", str(trials)]) == 2
    assert "too large to round to a grid step (limit 2**53)" in capsys.readouterr().err
    assert not out.exists() and not trials.exists()


def test_empty_decode_modes_in_sweep_config_is_usage_error(tmp_path, capsys):
    # the config accepts [] as a list of ints; the decode refuses it
    path, out, trials = tmp_path / "modes.json", tmp_path / "s.csv", tmp_path / "t.csv"
    path.write_text(json.dumps({**SMALL_SWEEP, "decode_modes": []}))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out),
                    "--trials-out", str(trials)]) == 2
    assert "decode modes must name at least one mode" in capsys.readouterr().err
    assert not out.exists() and not trials.exists()


def test_convolution_sweep_over_matrix_budget_is_usage_error(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**SMALL_SWEEP, "code": "braunstein5", "grid_n": 5832,
                                "error": {"kind": "convolution", "mode": 0,
                                          "kernel_width": 1.0}}))
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "exceeds the amplitude budget" in capsys.readouterr().err


def test_non_list_decode_modes_in_sweep_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "modes.json"
    path.write_text('{"code": "repetition3", "grid_n": 8, "sigmas": [0.0], '
                    '"trials": 2, "seed": 1, "decode_modes": 7}')
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "decode_modes must be a list of ints, got 7" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("trials", 2.5), ("trials", True), ("sigmas", []), ("logical", {"index": 3.7}),
    ("code", ["shor9"]), ("code", 5), ("code", "steane7"),
])
def test_non_integer_sweep_config_is_usage_error(tmp_path, capsys, key, value):
    config = {"code": "repetition3", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, key: value}))
    out = tmp_path / "out.csv"
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["inject", "decode"])
@pytest.mark.parametrize("header,message", [
    ('{"mode_count": 3}', "n_points must be an integer, got None"),
    ("[16, 3]", "must be a JSON object"),
    ('{"n_points": 8, "mode_count": 3.5}', "mode_count must be an integer, got 3.5"),
    ("{", "is not valid JSON"),
])
def test_bad_state_header_is_usage_error(tmp_path, capsys, command, header, message):
    enc = tmp_path / "enc"
    assert run_cli(["encode", "--code", "repetition3", "--grid-n", "8",
                    "--out", str(enc)]) == 0
    capsys.readouterr()
    (tmp_path / "enc.json").write_text(header)
    argv = [command, "--in", str(enc)]
    argv += ["--out", str(tmp_path / "bad")] if command == "inject" else ["--code", "repetition3"]
    assert run_cli(argv) == 2
    assert message in capsys.readouterr().err


SMALL_SWEEP = {"code": "repetition3", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1}


def test_unknown_top_level_sweep_key_is_usage_error(tmp_path, capsys):
    # a misspelled key used to be ignored and the sweep ran with the default
    for entry, key in [({"decode_mode": [1]}, "decode_mode"), ({"repetition": 5}, "repetition")]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SMALL_SWEEP, **entry}))
        out = tmp_path / "out.csv"
        assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_error_key_in_sweep_config_is_usage_error(tmp_path, capsys):
    # "shfit" used to be ignored: the sweep injected no shift and printed fidelity 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {**SMALL_SWEEP, "error": {"kind": "displacement", "mode": 0, "shfit": 2}}))
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "unknown error key(s) ['shfit'] for kind 'displacement'" in capsys.readouterr().err


def test_unknown_logical_key_in_sweep_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {**SMALL_SWEEP, "logical": {"kind": "two_peak", "seperation": 2}}))
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "unknown logical key(s) ['seperation'] for kind 'two_peak'" in capsys.readouterr().err


@pytest.mark.parametrize("logical,message", [
    ({"kind": "custom"}, "custom amplitudes must be a list of 8 [re, im] pairs"),
    ({"kind": "custom", "amplitudes": 5}, "custom amplitudes must be a list of 8"),
    ({"kind": "custom", "amplitudes": ["ab"] * 8}, "custom amplitudes must be a list of 8"),
    ({"kind": "custom", "amplitudes": [[1, "0"]] * 8}, "amplitude must be a number, got '0'"),
    ({"kind": "custom", "amplitudes": [[True, 0]] * 8}, "amplitude must be a number, got True"),
    ({"kind": "custom", "amplitudes": [[0, 0]] * 8}, "finite nonzero norm, got 0.0"),
    ({"kind": "bogus"}, "unknown logical kind 'bogus'"),
    ([1, 2], "logical spec must be a JSON object"),
])
def test_bad_logical_in_sweep_config_is_usage_error(tmp_path, capsys, logical, message):
    # these used to end in a KeyError or TypeError traceback, or a NaN warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_SWEEP, "logical": logical}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["sweep", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_zero_repetitions_at_zero_sigma_is_usage_error(capsys):
    # sigma 0 used to build an exact model that never read --repetitions
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", "--shift", "1",
                    "--sigma", "0", "--repetitions", "0"]) == 2
    assert "repetitions must be >= 1" in capsys.readouterr().err


def test_kick_without_a_finite_phase_is_usage_error_on_every_route(tmp_path, capsys):
    # inject used to write a state with NaN amplitudes, cycle to fail on a NaN
    # fidelity and a sweep to report fidelity 1
    enc, bad = tmp_path / "enc", tmp_path / "bad"
    assert run_cli(["encode", "--code", "braunstein5", "--grid-n", "8", "--out", str(enc)]) == 0
    capsys.readouterr()
    assert run_cli(["inject", "--in", str(enc), "--out", str(bad), "--kick", "1e308"]) == 2
    assert "(1e+308 dx) has no finite phase" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))
    assert run_cli(["cycle", "--code", "braunstein5", "--grid-n", "8", "--mode", "3",
                    "--kick", "1e308"]) == 2
    assert "no finite phase" in capsys.readouterr().err
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({
        "code": "braunstein5", "grid_n": 8, "sigmas": [0.0], "trials": 2, "seed": 1,
        "error": {"kind": "displacement", "mode": 3, "kick": 1e308}}))
    assert run_cli(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "no finite phase" in capsys.readouterr().err
    assert not out.exists()


def test_transpile_scan_over_the_budget_is_usage_error(tmp_path, capsys):
    # a 20-qubit circuit used to end in a 330 TiB allocation traceback
    for count in (13, 20):
        path, out = tmp_path / f"q{count}.json", tmp_path / f"v{count}"
        path.write_text(json.dumps({"qubit_count": count, "gates": []}))
        assert run_cli(["transpile", "--in", str(path), "--enumerate",
                        "--out-dir", str(out)]) == 2
        assert f"{count - 1} nullifier rows" in capsys.readouterr().err
        assert not (out / "verdicts.csv").exists()


@pytest.mark.parametrize("count", [0, -1])
def test_qubit_count_below_one_is_usage_error(tmp_path, capsys, count):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"qubit_count": count, "gates": []}))
    assert run_cli(["transpile", "--in", str(path)]) == 2
    assert "qubit_count must be >= 1" in capsys.readouterr().err
    assert capsys.readouterr().out == ""


def test_negative_kick_in_exponent_form_runs_like_the_attached_form(tmp_path, capsys):
    # argparse took "-1e0" for an option: "--kick: expected one argument"
    base = ["cycle", "--code", "braunstein5", "--grid-n", "8", "--mode", "3", "--shift", "1"]
    outputs = []
    for kick in (["--kick", "-1e0"], ["--kick=-1e0"], ["--kick", "-1.0"]):
        assert run_cli(base + kick) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["inferred_error"]["e_p"] < 0
    enc = tmp_path / "enc"
    assert run_cli(["encode", "--code", "braunstein5", "--grid-n", "8", "--out", str(enc)]) == 0
    for name, kick in (("a", ["--kick", "-1e0"]), ("b", ["--kick=-1e0"])):
        assert run_cli(["inject", "--in", str(enc), "--out", str(tmp_path / name),
                        "--mode", "3", *kick]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.mark.parametrize("flag,message", [
    ("--sigma", "sigma must be finite and >= 0, got -1.0"),
    ("--kernel-width", "kernel width must be finite and > 0"),
])
def test_negative_values_in_exponent_form_reach_their_checks(capsys, flag, message):
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", flag, "-1e0"]) == 2
    assert message in capsys.readouterr().err


def test_negative_shift_in_exponent_form_reaches_its_int_check(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", "--shift", "-1e0"])
    assert exc.value.code == 2
    assert "argument --shift: invalid int value: '-1e0'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--kic", "--ki"])
def test_negative_kick_in_exponent_form_runs_under_an_abbreviated_flag(capsys, flag):
    base = ["cycle", "--code", "braunstein5", "--grid-n", "8", "--mode", "3", "--shift", "1"]
    assert run_cli(base + ["--kick=-1e0"]) == 0
    want = capsys.readouterr().out
    assert run_cli(base + [flag, "-1e0"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("flag,message", [
    ("--sig", "sigma must be finite and >= 0, got -0.015"),
    ("--kernel", "kernel width must be finite and > 0"),
])
def test_abbreviated_flags_take_negative_exponent_values(capsys, flag, message):
    assert run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", flag, "-1.5e-2"]) == 2
    assert message in capsys.readouterr().err


def test_a_token_that_is_not_a_number_is_still_read_as_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["cycle", "--code", "repetition3", "--grid-n", "8", "--kick", "-1e"])
    assert exc.value.code == 2
    assert "argument --kick: expected one argument" in capsys.readouterr().err
