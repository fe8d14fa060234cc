"""Batch command-line front end.

Subcommands: coeffs, twostate, stack, sweep, decouple, profile.
Exit codes: 0 success, 1 configuration error, 2 file I/O error,
3 numerical error.  Outputs are deterministic: CSV floats use fixed
17-significant-digit formatting and JSON carries a provenance header.

Each subcommand is one entry of one table: its help line, the function
that adds its options and the function that runs it on the parsed
arguments.

Every command returns data and one renderer writes it.  Record commands
(coeffs, twostate, stack, decouple) return a result dict, rendered as a
JSON document or as a one-row CSV; table commands (sweep, profile) return
columns, an ordered dict of column name to equal-length values, rendered
as CSV only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import __version__
from .errors import DegenerateDecoupling, SheetOpticsError, SingularStack
from . import fields as fields_mod
from . import stack as stack_mod
from . import surface, twostate
from .codec import decode_complex, encode_complex

_DESCRIPTION = ("Scattering, absorption and emission of atomically thin conducting "
                "sheets and their stacks: single-sheet coefficients, two-state "
                "diagnostics, transfer-matrix stacks, sweeps, the decoupling layer "
                "number and field profiles.")
_EXIT_CODES = ("exit codes: 0 success, 1 configuration error, 2 file I/O error, "
               "3 numerical error")
#: Rows of a CSV table turned into Python values at a time.
_CSV_CHUNK_ROWS = 1024


class CliConfigError(Exception):
    pass


#: Negative numbers in every form ``float`` reads, exponent and infinity
#: included; argparse's own pattern knows only ``-12`` and ``-1.5``, and
#: takes ``--overlap -1e-3`` for an option flag with its value missing.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?$|^-(?:inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # config errors must map to exit code 1
        raise CliConfigError(message)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise CliConfigError("--sweep expects var:start:stop:steps")
    variable, start, stop, steps = parts
    if variable not in ("cond", "n_layers", "wavelength_nm", "thickness"):
        raise CliConfigError(f"unknown sweep variable {variable!r}")
    try:
        spec = SweepSpec(variable, float(start), float(stop), int(steps))
    except ValueError as exc:
        raise CliConfigError(f"bad sweep spec {text!r}: {exc}") from exc
    if spec.steps < 1:
        raise CliConfigError("sweep steps must be >= 1")
    if not (math.isfinite(spec.start) and math.isfinite(spec.stop)):
        raise CliConfigError("sweep start and stop must be finite")
    if spec.start > spec.stop:
        raise CliConfigError("sweep start must be <= stop")
    return spec


def _common(p, with_sheet=True):
    if with_sheet:
        p.add_argument("--cond", type=float, default=surface.GRAPHENE_COND,
                       help="dimensionless sheet conductance (default: pi*alpha)")
        p.add_argument("--branching", type=float, default=1.0)
        p.add_argument("--f-sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--out", dest="out", default=None,
                   help="output file (default: stdout)")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                   default=None, help="output format")


def _twostate_options(p):
    _common(p)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--energy-unit", type=float, default=1.0)
    p.add_argument("--coeffs", dest="coeffs_json", default=None,
                   help="JSON output of a 'coeffs' run; overrides --cond results")


def _stack_options(p):
    _common(p, with_sheet=False)
    p.add_argument("--stack", dest="stack_file", required=True)
    p.add_argument("--wavelength-nm", type=float, default=None,
                   help="evaluation wavelength (needs wavelength_nm in the file)")


def _sweep_options(p):
    _common(p)
    p.add_argument("--stack", dest="stack_file", default=None)
    p.add_argument("--wavelength-nm", type=float, default=None)
    p.add_argument("--sweep", dest="sweep", required=True,
                   help="var:start:stop:steps with var in "
                        "{cond,n_layers,wavelength_nm,thickness}")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored; rows are "
                        "computed serially")


def _profile_options(p):
    _common(p)
    p.add_argument("--which", choices=("a", "b"), default="a")
    p.add_argument("--b-r", type=float, default=None,
                   help="override right-going emission amplitude")
    p.add_argument("--b-l", type=float, default=None,
                   help="override left-going emission amplitude")
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--k", type=float, default=1.0)


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser with every subcommand, or the parser of
    ``command`` alone.

    ``main`` parses the arguments after a subcommand name with that
    subcommand's parser, into a namespace that already holds ``command``:
    the same namespace, help and errors as the whole parser gives, since
    ``_Parser`` raises argparse's message without the usage line.
    """
    if command is not None:
        _, add_options, _ = _SUBCOMMANDS[command]
        parser = _Parser(prog=f"sheetoptics {command}")
        add_options(parser)
        return parser
    parser = _Parser(prog="sheetoptics", description=_DESCRIPTION, epilog=_EXIT_CODES)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, _) in _SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _json_default(value):
    """JSON form of the non-JSON values in a result: complex scalars, arrays."""
    if isinstance(value, complex):
        return encode_complex(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_doc(args: argparse.Namespace, results: dict) -> Iterator[str]:
    options = dict(vars(args))
    doc = {
        "tool_version": __version__,
        "config_echo": {
            "command": options.pop("command"),
            "input_path": options.pop("stack_file", None),
            "output_path": options.pop("out"),
            "format": options.pop("fmt"),
            **options,
        },
        **results,
    }
    return _json_chunks(doc)


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2, default=_json_default) + "\n"``,
    in chunks.

    A 1-D float64 or complex128 array value is written here, as the codec and
    json write its elements; each run of other values goes through one
    ``json.dumps``.
    """
    separator = "{\n  "
    for vector, items in groupby(doc.items(), key=lambda item: _is_vector(item[1])):
        if vector:
            for key, value in items:
                yield f"{separator}{json.dumps(key)}: {_json_vector(value)}"
                separator = ",\n  "
        else:
            # the items of a non-empty dict, between its "{\n  " and "\n}"
            yield separator + json.dumps(dict(items), indent=2, default=_json_default)[4:-2]
            separator = ",\n  "
    yield "\n}\n"


def _is_vector(value) -> bool:
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype in (float, complex)


def _json_floats(values: np.ndarray) -> list[str]:
    """json's text of each float: its repr, or NaN, Infinity, -Infinity."""
    if np.isfinite(values).all():
        return list(map(float.__repr__, values.tolist()))
    return [float.__repr__(v) if math.isfinite(v) else
            "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
            for v in values.tolist()]


def _json_vector(values: np.ndarray) -> str:
    """JSON text of a 1-D float64 or complex128 array that is a value of the
    top-level object.  A complex element with zero imaginary part is a
    plain number, any other an [re, im] pair (the codec's forms)."""
    if not len(values):
        return "[]"
    items = _json_floats(values.real)
    if values.dtype.kind == "c":
        imag = values.imag
        items = [re if zero else f"[\n      {re},\n      {im}\n    ]"
                 for re, im, zero in zip(items, _json_floats(imag), (imag == 0.0).tolist())]
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _csv_code(column) -> str:
    """The printf code of a column, from the types of its cells: ``%.17g``
    for floats, ``%d`` for ints, ``%s`` for bools, strings and None (which
    ``_csv_cells`` turns into an empty cell)."""
    cells = column[:1].tolist() if isinstance(column, np.ndarray) else column
    types = set(map(type, cells))
    if all(issubclass(t, float) for t in types):
        return "%.17g"
    if all(issubclass(t, int) and t is not bool for t in types):
        return "%d"
    if types <= {bool, str, type(None)}:
        return "%s"
    raise TypeError("no CSV format for a column of "
                    + ", ".join(sorted(t.__name__ for t in types)))


def _csv_cells(cells, empty: str) -> list:
    """The cells of a column slice as a list of Python values, None as
    ``empty``."""
    if isinstance(cells, np.ndarray):
        return cells.tolist()
    return [empty if v is None else v for v in cells] if None in cells else cells


def _csv(columns: dict) -> Iterator[str]:
    """CSV text of columns: a header of their names, then one row per index.

    Each row is one ``%`` format of a template that holds one printf code
    per column (``_csv_code``; ``"%.17g" % v`` is ``float.__format__(v,
    ".17g")``), and is yielded alone.  The columns are turned into Python
    lists ``_CSV_CHUNK_ROWS`` rows at a time, so a long table is never held
    whole, as values or as text.  No cell a command writes needs CSV
    quoting: numbers, True/False, empty cells and the side labels.
    """
    values = list(columns.values())
    lengths = {len(column) for column in values}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    template = ",".join(map(_csv_code, values)) + "\n"
    # csv quotes a lone empty field, so that its row is not a blank line
    empty = '""' if len(values) == 1 else ""
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(columns)
    yield header.getvalue()
    for start in range(0, max(lengths, default=0), _CSV_CHUNK_ROWS):
        chunk = [_csv_cells(column[start:start + _CSV_CHUNK_ROWS], empty)
                 for column in values]
        yield from map(template.__mod__, zip(*chunk))


def _record_columns(results: dict) -> dict:
    """One-row columns of a result's scalars.

    A complex scalar takes two columns, key_re and key_im, unless its
    imaginary part is zero (the JSON codec writes it as a plain number
    then).  Arrays such as ``sheet_fields`` have no one-row form and are
    left out.
    """
    columns = {}
    for key, value in results.items():
        if isinstance(value, complex):
            encoded = encode_complex(value)
            if isinstance(encoded, list):
                columns[f"{key}_re"], columns[f"{key}_im"] = [encoded[0]], [encoded[1]]
            else:
                columns[key] = [encoded]
        elif value is None or isinstance(value, (int, float)):
            columns[key] = [value]
    return columns


def _write(args: argparse.Namespace, chunks: Iterable[str]) -> int:
    """Write the chunks to ``--out`` or stdout and return the exit code: 2,
    with no message, if the reader closes stdout early (``| head``)."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return 0
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:  # the shutdown flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def _sheet_params(args: argparse.Namespace) -> surface.SheetParams:
    return surface.SheetParams(cond=args.cond, branching=args.branching, f_sign=args.f_sign)


def _cmd_coeffs(args: argparse.Namespace) -> dict:
    params = _sheet_params(args)
    coeffs = surface.solve_single_sheet(params)
    check = surface.solve_boundary_system(params)
    tol = surface.SELF_CHECK_TOL
    if abs(check.t - coeffs.t) > tol or abs(check.r - coeffs.r) > tol:
        raise SheetOpticsError("closed form and boundary system disagree")
    a = surface.absorbance(coeffs, params)
    emission = surface.emission_amplitude(params, coeffs)
    return {"t": coeffs.t, "r": coeffs.r, "A": a, "b": emission.b_r,
            "f_mag": emission.f_mag}


def _cmd_twostate(args: argparse.Namespace) -> dict:
    params = _sheet_params(args)
    if args.coeffs_json:
        with open(args.coeffs_json, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("--coeffs file must hold a JSON object")
        for key in ("t", "r", "b"):
            if key not in data:
                raise ValueError(f"--coeffs file lacks the key {key!r}")
        coeffs = surface.ScatterCoeffs(t=decode_complex(data["t"], "t"),
                                       r=decode_complex(data["r"], "r"))
        b = decode_complex(data["b"], "b")
    else:
        coeffs = surface.solve_single_sheet(params)
        b = surface.emission_amplitude(params, coeffs).b_r
    sys_ = twostate.TwoStateSystem(
        coeffs=coeffs, b=b, overlap=args.overlap, energy_unit=args.energy_unit
    )
    results: dict = {"offdiagonal": twostate.offdiagonal(sys_)}
    try:
        pair = twostate.decouple(sys_)
    except DegenerateDecoupling:
        results.update(
            degenerate=True, theta_plus=None, theta_minus=None,
            e_plus=0.0, e_minus=0.0, r_plus=None, r_minus=None,
        )
    else:
        theta_plus, theta_minus = twostate.decoupling_phase(sys_)
        results.update(
            degenerate=False,
            theta_plus=theta_plus,
            theta_minus=theta_minus,
            e_plus=pair.energy_plus,
            e_minus=pair.energy_minus,
            r_plus=pair.reflection_plus,
            r_minus=pair.reflection_minus,
        )
    return results


def _stack_scale(wavelength_nm, reference_nm, name="--wavelength-nm") -> float:
    """Wavelength scale of ``wavelength_nm`` (None: the reference); ``name``
    is where the value came from, for the error message."""
    if wavelength_nm is None:
        return 1.0
    if reference_nm is None:
        raise CliConfigError("--wavelength-nm needs wavelength_nm in the stack file")
    if wavelength_nm <= 0:
        raise CliConfigError(f"{name} must be positive, got {float(wavelength_nm)!r}")
    return wavelength_nm / reference_nm


def _cmd_stack(args: argparse.Namespace) -> dict:
    stk, reference_nm = stack_mod.load_stack(args.stack_file)
    scale = _stack_scale(args.wavelength_nm, reference_nm)
    solution = stack_mod.solve_stack(stk, scale)
    return {
        "t": solution.t,
        "r": solution.r,
        "R": solution.R,
        "T": solution.T,
        "A": solution.A,
        "R_emission": solution.R_emission,
        "sheet_fields": solution.sheet_fields,
    }


def _cmd_decouple(args: argparse.Namespace) -> dict:
    found = stack_mod.decoupling_layer_number(args.cond)
    return {"n_exact": found.n_exact, "n_int": found.n_int, "residual": found.residual}


def _signless_imag(z) -> float:
    """Imaginary part, a zero written as +0 (the form the JSON codec gives a
    complex number with zero imaginary part)."""
    return 0.0 if z.imag == 0.0 else z.imag


def _coeff_columns(results, imag=lambda z: z.imag) -> dict:
    """t_re, t_im, r_re, r_im columns of results that carry t and r."""
    return {"t_re": [x.t.real for x in results], "t_im": [imag(x.t) for x in results],
            "r_re": [x.r.real for x in results], "r_im": [imag(x.r) for x in results]}


def _stack_sweep(args: argparse.Namespace,
                 values: np.ndarray) -> list[stack_mod.StackSolution]:
    spec = args.sweep
    if not args.stack_file:
        raise CliConfigError(f"{spec.variable} sweep requires --stack")
    stk, reference_nm = stack_mod.load_stack(args.stack_file)
    if spec.variable == "wavelength_nm":
        scales = [_stack_scale(v, reference_nm, "wavelength_nm sweep value") for v in values]
        return stack_mod.solve_sweep(stk, scales)
    # thickness: vary the last slab
    if not stk._layout.has_slab:
        raise CliConfigError("thickness sweep needs a slab in the stack")
    scale = _stack_scale(args.wavelength_nm, reference_nm)
    return stack_mod.solve_sweep(stk, [scale], last_slab_d=values)


def _cmd_sweep(args: argparse.Namespace) -> dict:
    # --jobs is accepted and ignored: a thread pool over these small,
    # GIL-bound numpy solves ran slower than the serial loop.
    spec = args.sweep
    if args.stack_file and spec.variable in ("cond", "n_layers"):
        raise CliConfigError(f"--stack does not apply to --sweep {spec.variable}")
    if args.wavelength_nm is not None and spec.variable != "thickness":
        raise CliConfigError(f"--wavelength-nm does not apply to --sweep {spec.variable}")
    values = spec.values()
    if spec.variable == "cond":
        params = [surface.SheetParams(cond=v, branching=args.branching,
                                      f_sign=args.f_sign) for v in values]
        coeffs = [surface.solve_single_sheet(p) for p in params]
        return {"cond": values, **_coeff_columns(coeffs),
                "A": [surface.absorbance(c, p) for c, p in zip(coeffs, params)],
                "abs_t_plus_r": [abs(c.t + c.r) for c in coeffs]}
    if spec.variable == "n_layers":
        n_layers = [int(round(v)) for v in values]
        coeffs = [stack_mod.nlayer_replacement(n, args.cond) for n in n_layers]
        return {"n_layers": n_layers, **_coeff_columns(coeffs),
                "abs_t_plus_r": [abs(c.t + c.r) for c in coeffs]}
    solutions = _stack_sweep(args, values)
    return {spec.variable: values, **_coeff_columns(solutions, _signless_imag),
            "R": [s.R for s in solutions], "T": [s.T for s in solutions],
            "A": [s.A for s in solutions],
            "R_emission": [s.R_emission for s in solutions]}


def _cmd_profile(args: argparse.Namespace) -> dict:
    if args.points < 1:
        raise CliConfigError(f"--points must be >= 1, got {args.points}")
    if not args.x_max > 0:
        raise CliConfigError(f"--x-max must be > 0, got {args.x_max!r}")
    # a tiny --x-max rounds grid points together, a huge one overflows the step
    with np.errstate(over="ignore", invalid="ignore"):
        grid_x = np.linspace(-args.x_max, args.x_max, args.points + 1)
        if not (np.diff(grid_x) > 0).all():
            raise CliConfigError(f"--x-max {args.x_max!r} with --points {args.points} "
                                 "gives no strictly increasing grid")
    params = _sheet_params(args)
    if args.which == "a":
        coeffs = surface.solve_single_sheet(params)
        profile = fields_mod.eval_a(coeffs.t, coeffs.r, grid_x, k=args.k)
    else:
        if args.b_r is not None or args.b_l is not None:
            b_r = args.b_r or 0.0
            b_l = args.b_l or 0.0
        else:
            coeffs = surface.solve_single_sheet(params)
            emission = surface.emission_amplitude(params, coeffs)
            b_r, b_l = emission.b_r, emission.b_l
        profile = fields_mod.eval_b(b_r, b_l, grid_x, k=args.k)
    dec = fields_mod.decompose(profile)
    return {"x": profile.x,
            "re_right": profile.right_env.real, "im_right": profile.right_env.imag,
            "re_left": profile.left_env.real, "im_left": profile.left_env.imag,
            "re_polar": dec.polar_env.real, "im_polar": dec.polar_env.imag,
            "re_axial": dec.axial_env.real, "im_axial": dec.axial_env.imag,
            "side": profile.side}


#: Subcommand name -> its help line, the function that adds its options and
#: the function that runs it.
_SUBCOMMANDS = {
    "coeffs": ("single-sheet coefficients and absorbance", _common, _cmd_coeffs),
    "twostate": ("two-state diagnostics for one sheet", _twostate_options, _cmd_twostate),
    "stack": ("transfer-matrix solution of a stack file", _stack_options, _cmd_stack),
    "sweep": ("parameter sweep, CSV table", _sweep_options, _cmd_sweep),
    "decouple": ("t + r = 0 layer-number search", _common, _cmd_decouple),
    "profile": ("field profile and gauge decomposition CSV", _profile_options, _cmd_profile),
}
#: Commands that return columns rather than a record; they emit CSV only.
_TABLE_COMMANDS = frozenset({"sweep", "profile"})


def _checked_args(args: argparse.Namespace) -> argparse.Namespace:
    """``args`` with the output format resolved and the sweep spec parsed.

    Raises CliConfigError for JSON from a table command and for a float
    option that is not finite.
    """
    table = args.command in _TABLE_COMMANDS
    args.fmt = args.fmt or ("csv" if table else "json")
    if table and args.fmt != "csv":
        raise CliConfigError(f"command {args.command!r} only emits csv")
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CliConfigError(
                f"--{name.replace('_', '-')} must be finite, got {value!r}")
    if args.command == "sweep":
        args.sweep = _parse_sweep(args.sweep)
    return args


def run(args: argparse.Namespace) -> Iterator[str]:
    """Run the command of checked arguments (see ``_checked_args``) and
    return its text as an iterator of chunks.  The command runs in this
    call, before the first chunk."""
    _, _, command = _SUBCOMMANDS[args.command]
    results = command(args)
    if args.fmt == "json":
        return _json_doc(args, results)
    if args.command in _TABLE_COMMANDS:
        return _csv(results)
    return _csv(_record_columns(results))


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of ``argv``.  A subcommand's options go into a
    namespace that starts with ``command``, the key order of the whole
    parser's namespace and so of ``config_echo``; a trailing ``--`` after
    them is dropped."""
    if argv and argv[0] in _SUBCOMMANDS:
        command, options = argv[0], argv[1:]
        if options[-1:] == ["--"]:  # ends the options; argparse 3.11 rejects it
            options = options[:-1]
        return build_parser(command).parse_args(options, argparse.Namespace(command=command))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _checked_args(_parse(argv))
        return _write(args, run(args))
    except (CliConfigError, ValueError, json.JSONDecodeError) as exc:
        print(f"sheetoptics: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sheetoptics: i/o error: {exc}", file=sys.stderr)
        return 2
    except (SingularStack, SheetOpticsError, np.linalg.LinAlgError) as exc:
        print(f"sheetoptics: numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
