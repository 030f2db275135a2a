"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .codes import UnsupportedCodeError, encode, get_code
from .gates import Circuit
from .grid import GridError, GridSpec, fidelity, load_state, save_state
from .syndrome import (
    ErrorSpec,
    MeasurementModel,
    apply_error,
    correct,
    extract_syndrome,
    run_qec_cycle,
)
from .symplectic import check_correctability
from .transpile import (
    FIVE_QUBIT_SIGN_ASSIGNMENT,
    QubitCircuitError,
    builtin_five_qubit_circuit,
    emit_cv_circuit,
    enumerate_valid_assignments,
    parse_qubit_circuit,
    substitute,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1


class CliError(Exception):
    """Usage-level failure (maps to exit code 2)."""


def _model_from_args(args: argparse.Namespace) -> MeasurementModel:
    return MeasurementModel.gaussian(args.sigma, repetitions=args.repetitions)


def _error_from_args(args: argparse.Namespace, dx: float) -> ErrorSpec:
    """``--kernel-width`` (overriding ``--shift``/``--kick``) in units of dx,
    read as the equivalent sweep-config error spec, so both are checked alike."""
    if args.kernel_width is not None:
        spec = {"kind": "convolution", "mode": args.mode, "kernel_width": args.kernel_width}
    else:
        spec = {"kind": "displacement", "mode": args.mode, "shift": args.shift, "kick": args.kick}
    return experiments.error_from_config(spec, dx)


def _logical_input(args: argparse.Namespace) -> np.ndarray:
    """Logical position eigenstate at ``--logical-index`` (default x = 0)."""
    spec = {"kind": "eigenstate", "index": args.logical_index}
    return experiments.logical_wavefunction(spec, GridSpec(args.grid_n, 1))


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_encode(args: argparse.Namespace) -> int:
    code = get_code(args.code)
    grid = GridSpec(args.grid_n, code.mode_count)
    state = encode(_logical_input(args), code, grid)
    save_state(state, args.out)
    nonzero = int(np.count_nonzero(np.abs(state.amplitudes) > 1e-12))
    sys.stdout.write(
        json.dumps({"code": code.name, "n_points": args.grid_n, "nonzero": nonzero}) + "\n"
    )
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    state = load_state(args.infile)
    error = _error_from_args(args, state.grid.dx)
    out = apply_error(state, error)
    save_state(out, args.out)
    sys.stdout.write(json.dumps({"error": error.kind, "mode": args.mode}) + "\n")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    code = get_code(args.code)
    state = load_state(args.infile)
    model = _model_from_args(args)
    rng = np.random.default_rng(args.seed)
    record, collapsed = extract_syndrome(state, code, model, rng)
    result = correct(collapsed, code, record)
    payload: dict = {
        "syndrome": json.loads(record.to_json()),
        "correction_applied": result.applied,
        "reason": result.reason,
    }
    if result.inferred is not None:
        payload["inferred_error"] = {
            "mode": result.inferred.mode,
            "e_x": result.inferred.e_x,
            "e_p": result.inferred.e_p,
        }
    if args.reference:
        ref = load_state(args.reference)
        payload["post_correction_fidelity"] = fidelity(result.state, ref)
    if args.state_out:
        save_state(result.state, args.state_out)
    _emit(args, json.dumps(payload, indent=2))
    return 0


def cmd_cycle(args: argparse.Namespace) -> int:
    code = get_code(args.code)
    grid = GridSpec(args.grid_n, code.mode_count)
    psi = _logical_input(args)
    error = _error_from_args(args, grid.dx)
    model = _model_from_args(args)
    rng = np.random.default_rng(args.seed)
    decode_modes = [args.decode_mode] if args.decode_mode is not None else None
    report = run_qec_cycle(psi, code, error, model, rng, grid=grid, decode_modes=decode_modes)
    _emit(args, report.to_json())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = experiments.SweepConfig.from_json(Path(args.config).read_text())
    trial_rows: list[tuple] | None = [] if args.trials_out else None
    rows = experiments.run_sweep(config, trial_rows=trial_rows)
    csv_text = experiments.sweep_rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.trials_out:
        Path(args.trials_out).write_text(
            experiments.trial_rows_to_csv(config, trial_rows)
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    code = get_code(args.code)
    report = check_correctability(code, error_class=args.errors)
    _emit(args, report.to_json())
    return 0 if report.all_pass else VERIFY_ERROR


def cmd_transpile(args: argparse.Namespace) -> int:
    if args.infile == "builtin":
        qc = builtin_five_qubit_circuit()
    else:
        path = Path(args.infile)
        if not path.exists():
            raise CliError(f"input file {path} not found")
        qc = parse_qubit_circuit(path.read_text())
    if not args.enumerate:
        circuit = substitute(
            qc,
            FIVE_QUBIT_SIGN_ASSIGNMENT
            if qc == builtin_five_qubit_circuit()
            else [False] * len(qc.xor_indices()),
        )
        _emit(args, circuit.to_json())
        return 0
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = enumerate_valid_assignments(qc)
    lines = ["assignment,parity_ok,correctable,degenerate,valid,failing_pairs"]
    any_valid = False
    for v in verdicts:
        bits = "".join("1" if b else "0" for b in v.assignment)
        pairs = ";".join(f"({j},{k})" for j, k in v.report.failing_pairs())
        lines.append(
            f"{bits},{int(v.parity_ok)},{int(v.report.all_pass)},"
            f"{int(v.degenerate)},{int(v.valid)},{pairs}"
        )
        if v.valid:
            any_valid = True
            (out_dir / f"circuit_{bits}.json").write_text(
                emit_cv_circuit(qc, v.assignment) + "\n"
            )
    (out_dir / "verdicts.csv").write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {out_dir / 'verdicts.csv'} ({len(verdicts)} assignments)\n")
    return 0 if any_valid else VERIFY_ERROR


#: a negative decimal number, with or without an exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a dash-led number in exponent form, such
    as ``-1e0``, for a value, as argparse already takes ``-1.5``: so
    ``--kick -1e0``, like ``--kick=-1e0``, reaches the option's own type
    check, under its full name or any prefix argparse resolves.  Subparsers
    are of the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvqec",
        description="Continuous-variable quantum error correction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, grid: bool = True) -> None:
        p.add_argument("--code", default="repetition3",
                       help="code name: repetition3 | shor9 | braunstein5 (default %(default)s)")
        if grid:
            p.add_argument("--grid-n", type=int, default=16,
                           help="grid points per mode (default %(default)s)")

    p = sub.add_parser("encode", help="encode a logical position eigenstate to a state file")
    add_common(p)
    p.add_argument("--logical-index", type=int, default=None,
                   help="grid index of the logical eigenstate (default: center, x = 0)")
    p.add_argument("--out", required=True, help="output state path prefix")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("inject", help="inject an error into a state file")
    p.add_argument("--in", dest="infile", required=True, help="input state path prefix")
    p.add_argument("--out", required=True, help="output state path prefix")
    p.add_argument("--mode", type=int, default=0, help="target mode (default %(default)s)")
    p.add_argument("--shift", type=int, default=0, help="position shift in grid points")
    p.add_argument("--kick", type=float, default=0.0, help="momentum kick in units of dx")
    p.add_argument("--kernel-width", type=float, default=None,
                   help="Gaussian kernel width in units of dx (overrides shift/kick)")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("decode", help="measure syndromes and correct a state file")
    add_common(p, grid=False)
    p.add_argument("--in", dest="infile", required=True, help="input state path prefix")
    p.add_argument("--reference", default=None, help="reference state prefix for fidelity")
    p.add_argument("--state-out", default=None, help="write the corrected state here")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="measurement noise std in position units (default exact)")
    p.add_argument("--repetitions", type=int, default=1,
                   help="syndrome re-measurements to average (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    p.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("cycle", help="run one full encode/error/measure/correct cycle")
    add_common(p)
    p.add_argument("--logical-index", type=int, default=None)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--kick", type=float, default=0.0, help="momentum kick in units of dx")
    p.add_argument("--kernel-width", type=float, default=None)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decode-mode", type=int, default=None,
                   help="restrict decoding to this mode (known error location)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("sweep", help="Monte-Carlo fidelity sweep over noise widths")
    p.add_argument("--config", required=True, help="JSON sweep configuration file")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--trials-out", default=None,
                   help="also stream one CSV row per trial to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="displacement-correctability report for a code")
    add_common(p, grid=False)
    p.add_argument("--errors", choices=("full", "position", "momentum"), default="full",
                   help="error class to certify (default %(default)s)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transpile", help="substitute a qubit circuit into the CV gate set")
    p.add_argument("--in", dest="infile", required=True,
                   help="qubit circuit JSON path, or 'builtin' for the five-qubit fixture")
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate sign assignments and write verdicts")
    p.add_argument("--out-dir", default=None, help="directory for circuits and verdicts.csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transpile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, UnsupportedCodeError, GridError, QubitCircuitError,
            experiments.ConfigError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
