"""Command-line front end: design, analyze, verify, simulate, expand, export.

All output is deterministic: identical argument vectors produce byte-identical
text, CSV uses a header row with ``,`` separators and ``.`` decimal points,
and structured results are JSON.

Each command computes its whole result first and returns its text as an
iterable of chunks, which :func:`main` writes in order to standard output or
the ``--output`` file.  CSV is formatted in blocks of at most ``_BLOCK_ROWS``
rows as it is written, so beyond the result arrays memory does not grow with
the number of output rows.  A command that fails raises before any text is
written: it prints nothing and creates no ``--output`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .design import METHODS, OFFSET_METHODS, DesignSpec, design_pair
from .discrete import DURATION, EXPERIMENTS, SAMPLE_PERIOD, identity_experiment
from .errors import DomainError, EpsilonRangeError, NotRealizableError
from .factored import log_response
from .frequency import (DIFFERENTIATOR, INTEGRATOR, SWEEP_COUNT, exact_response, make_grid,
                        sweep_table)
from .identities import CONDITIONS, associativity_table, check_identity
from .realization import export_netlist, synthesize_rc, to_partial_fractions

_TABLE_SWEEP_ALPHAS = [a / 10.0 for a in range(1, 10)]
_MATRIX_ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]
_BLOCK_ROWS = 4096  # CSV rows formatted and written per chunk
_KINDS = {"int": INTEGRATOR, "diff": DIFFERENTIATOR}  # by --kind
# Exit codes of the errors a command raises; any other ValueError exits 2.
_EXIT_CODES = {EpsilonRangeError: 3, NotRealizableError: 4}


def _add_band_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wl", type=float, default=DesignSpec.omega_l,
                        help="band lower edge, rad/s")
    parser.add_argument("--wh", type=float, default=DesignSpec.omega_h,
                        help="band upper edge, rad/s")
    parser.add_argument("--n", type=int, default=DesignSpec.n, help="number of factor pairs")
    parser.add_argument("--k", type=int, default=DesignSpec.k, help="factor multiplicity")


def _add_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, default=SAMPLE_PERIOD, help="sample period, s")
    parser.add_argument("--T", type=float, default=DURATION, help="horizon, s")


def _add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", "-m", type=int, required=True, choices=METHODS,
                        metavar=f"{METHODS[0]}..{METHODS[-1]}", help="design method index")
    parser.add_argument("--alpha", "-a", type=float, required=True,
                        help="fractional order in (0, 1)")
    _add_band_arguments(parser)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--eps", type=float, default=None,
                       help="ripple offset in dB (methods 3 and 4)")
    group.add_argument("--eps-special", action="store_true",
                       help="use the special offset that collapses methods 3/4 onto 1/2")


def _add_kind_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=_KINDS, default="int",
                        help="integrator or differentiator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difint",
        description="Design and verify identity-preserving rational approximations "
                    "of fractional integrators and differentiators.",
    )
    parser.add_argument("--output", "-o", default="-",
                        help="output file path, or - for standard output")
    parser.add_argument("--precision", type=int, default=9,
                        help="significant digits for printed numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="print designed parameters")
    _add_design_arguments(p_design)
    _add_kind_argument(p_design)
    p_design.add_argument("--format", choices=("json", "text"), default="text")

    p_bode = sub.add_parser("bode", help="frequency response and error CSV")
    _add_design_arguments(p_bode)
    _add_kind_argument(p_bode)
    p_bode.add_argument("--points", type=int, default=1000, help="grid size")

    p_table = sub.add_parser("table", help="benchmark comparison tables")
    p_table.add_argument("--which", type=int, required=True, choices=range(1, 6),
                         metavar="1..5",
                         help="1: composition law matrix; 2/3: integrator/differentiator "
                              "band error norms; 4/5: time-domain identity errors at "
                              "order 0.4 / at the singular order 0.5")
    _add_band_arguments(p_table)
    p_table.add_argument("--points", type=int, default=SWEEP_COUNT,
                         help="frequency grid size (tables 2 and 3)")
    p_table.add_argument("--alphas", default=None,
                         help="comma-separated order sweep (tables 1, 2, 3)")
    p_table.add_argument("--alpha", type=float, default=None,
                         help="single order (tables 4 and 5)")
    _add_sampling_arguments(p_table)

    p_check = sub.add_parser("check", help="composition law verdicts as JSON")
    _add_design_arguments(p_check)
    p_check.add_argument("--condition", choices=(*CONDITIONS, "all"), default="all")

    p_sim = sub.add_parser("simulate", help="time-domain identity experiment CSV")
    _add_design_arguments(p_sim)
    _add_sampling_arguments(p_sim)
    p_sim.add_argument("--experiment", choices=(*EXPERIMENTS, "all"), default="all")

    p_pfe = sub.add_parser("pfe", help="partial-fraction form as JSON")
    _add_design_arguments(p_pfe)
    _add_kind_argument(p_pfe)

    p_circuit = sub.add_parser("circuit", help="RC network netlist (k = 1 only)")
    _add_design_arguments(p_circuit)
    _add_kind_argument(p_circuit)
    p_circuit.add_argument("--format", choices=("spice", "json"), default="spice")

    return parser


def _spec_from_args(args) -> DesignSpec:
    # --eps-special reaches the spec as no offset, which it cannot reject.
    if args.eps_special and args.method not in OFFSET_METHODS:
        raise DomainError(f"method {args.method} does not take a ripple offset")
    return DesignSpec(args.method, args.alpha, args.wl, args.wh, args.n, args.k, args.eps)


def _designed(args):
    """The spec of a command that takes ``--kind``, its kind
    (``INTEGRATOR`` or ``DIFFERENTIATOR``) and the model of that kind.
    Unlike ``check`` and ``simulate``, these commands need an offset method
    to be given its offset."""
    if args.method in OFFSET_METHODS and args.eps is None and not args.eps_special:
        raise DomainError(f"method {args.method} needs --eps or --eps-special")
    spec = _spec_from_args(args)
    kind = _KINDS[args.kind]
    pair = design_pair(spec)
    return spec, kind, pair.integrator if kind == INTEGRATOR else pair.differentiator


def _fmt(value: float, precision: int) -> str:
    return format(float(value) + 0.0, f".{precision}g")  # +0.0 folds away -0


def _jnum(value: float, precision: int) -> float:
    return float(_fmt(value, precision))


def _csv(header: list[str], columns, precision: int) -> Iterator[str]:
    """CSV text of equal-length ``columns``, each all str cells or all numbers.

    Yields the header line, then the rows of :func:`_csv_rows`.
    """
    yield ",".join(header) + "\n"
    yield from _csv_rows(columns, precision)


def _csv_rows(columns, precision: int, prefix: str = "") -> Iterator[str]:
    """CSV rows of ``columns`` in chunks of at most ``_BLOCK_ROWS`` lines.

    Each row starts with the literal ``prefix``.  Each block of a numeric
    column is converted to Python floats once and each row is rendered by
    one ``%`` template, which prints numbers exactly as :func:`_fmt` does.
    """
    numeric = [not (len(column) and isinstance(column[0], str)) for column in columns]
    row = prefix.replace("%", "%%") + ",".join(
        f"%.{precision}g" if is_number else "%s" for is_number in numeric)
    count = min((len(column) for column in columns), default=0)
    for start in range(0, count, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells = [
            (np.asarray(column[block], dtype=float) + 0.0).tolist()  # +0.0 folds away -0
            if is_number else column[block]
            for column, is_number in zip(columns, numeric)
        ]
        yield "\n".join(row % values for values in zip(*cells)) + "\n"


def _model_json(model, precision):
    return {
        "gain": _jnum(model.gain, precision),
        "s_exponent": model.s_exponent,
        "multiplicity": model.multiplicity,
        "zeros": [_jnum(z, precision) for z in model.zeros],
        "poles": [_jnum(p, precision) for p in model.poles],
    }


def cmd_design(args) -> Iterable[str]:
    spec, kind, model = _designed(args)
    p = args.precision
    if args.format == "json":
        payload = {
            "method": spec.kappa,
            "kind": kind,
            "branch": spec.branch.value,
            "alpha": _jnum(spec.alpha, p),
            "omega_l": _jnum(spec.omega_l, p),
            "omega_h": _jnum(spec.omega_h, p),
            "n": spec.n,
            "k": model.multiplicity,
            "epsilon": None if spec.epsilon is None else _jnum(spec.epsilon, p),
        }
        payload.update(_model_json(model, p))
        return [json.dumps(payload, indent=2) + "\n"]
    lines = [
        f"method={spec.kappa} kind={kind} branch={spec.branch.value}",
        f"alpha={_fmt(spec.alpha, p)} omega_l={_fmt(spec.omega_l, p)} "
        f"omega_h={_fmt(spec.omega_h, p)} n={spec.n} k={model.multiplicity}"
        + ("" if spec.epsilon is None else f" epsilon={_fmt(spec.epsilon, p)}"),
        f"gain={_fmt(model.gain, p)} s_exponent={model.s_exponent}",
        "index,zero,pole",
    ]
    for index, (z, q) in enumerate(model.factors, start=1):
        lines.append(f"{index},{_fmt(z, p)},{_fmt(q, p)}")
    return ["\n".join(lines) + "\n"]


def cmd_bode(args) -> Iterable[str]:
    spec, kind, model = _designed(args)
    grid = make_grid(spec.omega_l, spec.omega_h, args.points)
    mag_model, phase_model = log_response(model, grid)
    mag_exact, phase_exact = exact_response(spec.alpha, kind, grid)
    header = ["omega", "mag_db_model", "mag_db_exact", "phase_deg_model",
              "phase_deg_exact", "mag_error_db", "phase_error_deg"]
    columns = [grid, mag_model, mag_exact, phase_model, phase_exact,
               mag_exact - mag_model, phase_exact - phase_model]
    return _csv(header, columns, args.precision)


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DomainError(f"bad order sweep {text!r}") from exc


def cmd_table(args) -> Iterable[str]:
    p = args.precision
    if args.which == 1:
        alphas = _parse_alphas(args.alphas) if args.alphas else _MATRIX_ALPHAS
        matrix = associativity_table(alphas, args.wl, args.wh, args.n, args.k)
        lines = ["method  i  ii  iii"]
        for kappa, passes in zip(METHODS, matrix):
            marks = ["✓" if passed else "×" for passed in passes]
            lines.append(f"{kappa}       {marks[0]}  {marks[1]}   {marks[2]}")
        return ["\n".join(lines) + "\n"]
    if args.which in (2, 3):
        alphas = _parse_alphas(args.alphas) if args.alphas else _TABLE_SWEEP_ALPHAS
        kind = INTEGRATOR if args.which == 2 else DIFFERENTIATOR
        rows = []
        for kappa in METHODS:
            row = sweep_table(kappa, kind, alphas, args.wl, args.wh, args.n, args.k,
                              args.points)
            rows.append([str(kappa), row.mag_norm_inf, row.mag_norm_two,
                         row.phase_norm_inf, row.phase_norm_two])
        header = ["method", "mag_inf_db", "mag_two_db", "phase_inf_deg", "phase_two_deg"]
        return _csv(header, list(zip(*rows)), p)
    alpha = args.alpha if args.alpha is not None else (0.4 if args.which == 4 else 0.5)
    rows = []
    for kappa in METHODS:
        res = identity_experiment(kappa, alpha, args.wl, args.wh, args.n, args.k,
                                  sample_period=args.h, duration=args.T)
        rows.append([str(kappa), *itertools.chain.from_iterable(
            (res[name].inf_norm, res[name].two_norm) for name in EXPERIMENTS)])
    header = ["method", *(f"{name}_{norm}" for name in EXPERIMENTS for norm in ("inf", "two"))]
    return _csv(header, list(zip(*rows)), p)


def cmd_check(args) -> Iterable[str]:
    spec = _spec_from_args(args)
    conditions = CONDITIONS if args.condition == "all" else (args.condition,)
    p = args.precision
    verdicts = []
    for condition in conditions:
        verdict = check_identity(condition, spec)
        verdicts.append({
            "condition": condition,
            "structural_pass": verdict.structural_pass,
            "numeric_max_deviation": _jnum(verdict.numeric_max_deviation, p),
            "simplified": None if verdict.simplified is None
            else _model_json(verdict.simplified, p),
            "failure_note": verdict.failure_note,
        })
    payload = verdicts[0] if len(verdicts) == 1 else verdicts
    return [json.dumps(payload, indent=2) + "\n"]


def cmd_simulate(args) -> Iterable[str]:
    spec = _spec_from_args(args)
    results = identity_experiment(spec.kappa, spec.alpha, spec.omega_l, spec.omega_h,
                                  spec.n, spec.k, spec.epsilon,
                                  sample_period=args.h, duration=args.T)
    p = args.precision
    header = ["t", "u", "exact", "approx", "error"]

    def columns(name):
        res = results[name]
        return [res.time, res.input_signal, res.exact, res.approx, res.error]

    if args.experiment != "all":
        return _csv(header, columns(args.experiment), p)
    return itertools.chain(
        [",".join(["experiment", *header]) + "\n"],
        *(_csv_rows(columns(name), p, prefix=f"{name},") for name in EXPERIMENTS))


def cmd_pfe(args) -> Iterable[str]:
    _, _, model = _designed(args)
    pf = to_partial_fractions(model)
    p = args.precision
    payload = {
        "direct": _jnum(pf.direct, p),
        "origin_residue": _jnum(pf.origin_residue, p),
        "terms": [
            {"pole": _jnum(term.pole, p),
             "residues": [_jnum(r, p) for r in term.residues]}
            for term in pf.terms
        ],
    }
    return [json.dumps(payload, indent=2) + "\n"]


def cmd_circuit(args) -> Iterable[str]:
    spec, _, model = _designed(args)
    if model.multiplicity != 1:
        # Checked before expanding: no repeated-pole model is an RC ladder
        # whatever its residues, even where its expansion would overflow
        # (exit 2, for residues beyond the float range on very wide bands).
        raise NotRealizableError(
            "repeated poles have no single-section RC realization (k > 1 not synthesizable)"
        )
    network = synthesize_rc(to_partial_fractions(model))
    meta = {
        "method": spec.kappa,
        "alpha": _fmt(spec.alpha, args.precision),
        "omega_l": _fmt(spec.omega_l, args.precision),
        "omega_h": _fmt(spec.omega_h, args.precision),
        "n": spec.n,
    }
    return [export_netlist(network, format=args.format, meta=meta,
                           precision=args.precision)]


_COMMANDS = {
    "design": cmd_design,
    "bode": cmd_bode,
    "table": cmd_table,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "pfe": cmd_pfe,
    "circuit": cmd_circuit,
}


def _write_output(chunks: Iterable[str], destination: str) -> None:
    with (contextlib.nullcontext(sys.stdout) if destination == "-"
          else open(destination, "w", encoding="utf-8")) as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.precision < 0:
            parser.error(f"argument --precision: must be >= 0, got {args.precision}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        chunks = _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)
    try:
        _write_output(chunks, args.output)
    except BrokenPipeError:
        # The reader closed the pipe early, as ``difint simulate | head`` does,
        # and has all the text it wanted.  Standard output goes to the null
        # device so that the interpreter's final flush does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
