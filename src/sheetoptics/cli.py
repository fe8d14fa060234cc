"""Batch command-line front end.

Subcommands: coeffs, twostate, stack, sweep, decouple, profile.
Exit codes: 0 success, 1 configuration error, 2 file I/O error,
3 numerical error.  Outputs are deterministic: CSV floats use fixed
17-significant-digit formatting, JSON floats the shortest digits that
read back (``repr``), and JSON carries a provenance header.

Each subcommand is one entry of one table: its help line, its options and
the function that runs it on the parsed arguments.  Each option is one
record.  Argv takes one of two routes: ``_read`` reads a well-formed
subcommand argv straight from the records, with no parser built, and
``build_parser``, whose arguments come from the same records, parses
everything else.

Every command returns data and one renderer writes it.  Record commands
(coeffs, twostate, stack, decouple) return a result dict, rendered as a
JSON document or as a one-row CSV; table commands (sweep, profile) return
columns, an ordered dict of column name to equal-length values, rendered
as CSV only.  A table is written 1024 rows at a time.  A long chunk is laid
out as one byte matrix by ``floattext.csv_pieces``, its float cells written
by ``floattext.g17``, a vectorized kernel with the bytes of ``%.17g``, and
its text is yielded in pieces of whole rows, each a str of under 512 bytes
unless it is one row, so that it comes from CPython's small-object
allocator; a short table is written by one ``%`` format per row (see
``_csv``).

A JSON document comes from one writer, ``_json_text``, with the bytes of
``json.dumps(doc, indent=2)``, for the values the commands write: str,
None, bools, ints, floats, complex numbers in the codec's forms, non-empty
dicts of these and 1-D complex arrays, like a stack's ``sheet_fields``.
The floats of a long such array are written by ``floattext.shortest``, a
vectorized kernel with the bytes of ``repr``, and the array's text is
assembled as bytes (see ``floattext.json_vector``).

numpy is imported where an array is built: by the stack, sweep and profile
commands and by the lazy modules they run.  ``coeffs``, ``twostate`` and
``decouple`` compute on ``math`` and ``cmath`` (``surface``, ``twostate``)
and build no array, so their processes do not load numpy, with one
exception: ``twostate`` takes the angle of a coupling that lies off both
axes, as from a ``--coeffs`` file of complex coefficients, from numpy's
``arctan2`` (see ``twostate.decoupling_phase``).  The writers test for an
array through ``sys.modules`` (``_ndarray``).  ``decouple`` and the
layer-number sweep take the N-sheet closed form from ``surface`` and never
run ``stack``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .errors import DegenerateDecoupling, SheetOpticsError
# fields, floattext, stack and twostate are lazy modules (see the package
# docstring): each runs at the first command that reads one of its names
from . import fields as fields_mod
from . import floattext
from . import stack as stack_mod
from . import surface, twostate
from .codec import decode_complex, encode_complex, json_float, load_json

if TYPE_CHECKING:
    import numpy as np

_DESCRIPTION = ("Scattering, absorption and emission of atomically thin conducting "
                "sheets and their stacks: single-sheet coefficients, two-state "
                "diagnostics, transfer-matrix stacks, sweeps, the decoupling layer "
                "number and field profiles.")
_EXIT_CODES = ("exit codes: 0 success, 1 configuration error, 2 file I/O error, "
               "3 numerical error")
#: Rows of a CSV table turned into Python values at a time.
_CSV_CHUNK_ROWS = 1024
#: Float cells from which a float kernel writes them: ``floattext.g17`` in a
#: CSV chunk, ``floattext.shortest`` in a JSON vector (both parts of each
#: element).  Measured on a shared 2-core x86_64 machine with numpy
#: 2.4.6 (median of 15 interleaved best-of timings, distinct values), both
#: kernels cost about 100 us a call however few the cells, and each broke
#: even with its per-cell route, one ``%`` per CSV row or one ``repr`` per
#: JSON float, at 200-250 cells: the two routes cost about the same per
#: float, so one crossover serves both.  At 250 cells the kernels were
#: 1.08-1.14x faster, at 500 1.66-1.73x.  The CSV byte-matrix route (median
#: of 9 ratios of best-of-7 timings, written to a StringIO) breaks even at
#: about 250 float cells for a stack sweep's nine float columns, and each
#: int or label column adds about as many again: a profile chunk (nine
#: float columns and the side label) broke even at about 55 rows (500 float
#: cells), an n_layers sweep (an int column and five float ones) at 100-130
#: rows (500-650), where at 60 rows the byte matrix took 1.4-1.6x as long
#: as one ``%`` per row.  So ``_csv`` asks ``_KERNEL_CELLS`` more float
#: cells of a chunk for each column that is not float.  A float column held
#: as a list of Python floats, as a cond or n_layers sweep returns its
#: t, r, A and |t + r| columns, is first turned into an array: a cond sweep
#: (an array and six lists of floats) broke even at 65-70 rows (455-490
#: float cells), where at 40 rows the byte matrix took 1.4x as long, and an
#: n_layers sweep (an int column and five lists of floats) at about 140
#: rows (700 cells).  So ``_csv`` asks a sixth of ``_KERNEL_CELLS`` more
#: for each such list.  The term marks these sweeps' shape rather than
#: the lists' cost: with its columns built as arrays a cond sweep broke
#: even at the same 72 rows (ROADMAP item 13).
_KERNEL_CELLS = 250


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


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """(variable, values) of a ``var:start:stop:steps`` sweep spec."""
    import numpy as np

    parts = text.split(":")
    if len(parts) != 4:
        raise CliConfigError("--sweep expects var:start:stop:steps")
    variable, start, stop, steps = parts
    if variable not in ("cond", "n_layers", "wavelength_nm", "thickness"):
        raise CliConfigError(f"unknown sweep variable {variable!r}")
    try:
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise CliConfigError(f"bad sweep spec {text!r}: {exc}") from exc
    if steps < 1:
        raise CliConfigError("sweep steps must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CliConfigError("sweep start and stop must be finite")
    if start > stop:
        raise CliConfigError("sweep start must be <= stop")
    if steps == 1:
        return variable, np.array([start])
    if not math.isfinite(stop - start):
        raise CliConfigError(f"sweep range {text!r} is too wide: stop - start overflows")
    # the last point may round past the largest float before linspace sets
    # it to stop
    with np.errstate(over="ignore"):
        return variable, np.linspace(start, stop, steps)


@dataclass(frozen=True)
class _Option:
    """One option of a subcommand: ``add_argument(flag, dest=dest, ...)``."""
    flag: str
    dest: str
    type: type | None = None
    default: object = None
    choices: tuple | None = None
    required: bool = False
    help: str | None = None


_SHEET_OPTIONS = (
    _Option("--cond", "cond", float, surface.GRAPHENE_COND,
            help="dimensionless sheet conductance (default: pi*alpha)"),
    _Option("--branching", "branching", float, 1.0),
    _Option("--f-sign", "f_sign", int, 1, choices=(1, -1)),
)
_OUTPUT_OPTIONS = (
    _Option("--out", "out", help="output file (default: stdout)"),
    _Option("--format", "fmt", choices=("csv", "json"), help="output format"),
)
_COMMON_OPTIONS = _SHEET_OPTIONS + _OUTPUT_OPTIONS
_TWOSTATE_OPTIONS = _COMMON_OPTIONS + (
    _Option("--overlap", "overlap", float, 0.0),
    _Option("--energy-unit", "energy_unit", float, 1.0),
    _Option("--coeffs", "coeffs_json",
            help="JSON output of a 'coeffs' run; overrides --cond results"),
)
_STACK_OPTIONS = _OUTPUT_OPTIONS + (
    _Option("--stack", "stack_file", required=True),
    _Option("--wavelength-nm", "wavelength_nm", float,
            help="evaluation wavelength (needs wavelength_nm in the file)"),
)
_SWEEP_OPTIONS = _COMMON_OPTIONS + (
    _Option("--stack", "stack_file"),
    _Option("--wavelength-nm", "wavelength_nm", float),
    _Option("--sweep", "sweep", required=True,
            help="var:start:stop:steps with var in "
                 "{cond,n_layers,wavelength_nm,thickness}"),
    _Option("--jobs", "jobs", int, 1,
            help="accepted for compatibility and ignored; rows are "
                 "computed serially"),
)
_PROFILE_OPTIONS = _COMMON_OPTIONS + (
    _Option("--which", "which", default="a", choices=("a", "b")),
    _Option("--b-r", "b_r", float, help="override right-going emission amplitude"),
    _Option("--b-l", "b_l", float, help="override left-going emission amplitude"),
    _Option("--x-max", "x_max", float, 5.0),
    _Option("--points", "points", int, 200),
    _Option("--k", "k", float, 1.0),
)


def build_parser() -> _Parser:
    """The command-line parser with every subcommand, built from the tables.

    ``main`` parses with it every argv that ``_read`` declines: help,
    abbreviations, ``--flag=value`` and every error.
    """
    parser = _Parser(prog="sheetoptics", description=_DESCRIPTION, epilog=_EXIT_CODES)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for option in options:
            subparser.add_argument(option.flag, dest=option.dest, type=option.type,
                                   default=option.default, choices=option.choices,
                                   required=option.required, help=option.help)
    return parser


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
    """The text of ``json.dumps(doc, indent=2) + "\n"``, written by
    ``_json_text``."""
    yield _json_text(doc, "") + "\n"


#: json's text of a str: the C encoder that ``json.dumps`` uses.
_json_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` of a value on a line indented by
    ``pad``, for the values a document holds: a str, None, a bool, an int,
    a float, a complex number in the codec's form (a plain number or an
    [re, im] pair), a non-empty dict of these and a 1-D complex128 array
    (``_json_vector``).  Any other value is a TypeError."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json_float(value)
    inner = pad + "  "
    if isinstance(value, complex):
        z = encode_complex(value)
        if isinstance(z, float):
            return json_float(z)
        return f"[\n{inner}{json_float(z[0])},\n{inner}{json_float(z[1])}\n{pad}]"
    if isinstance(value, dict) and value:
        items = [f"{_json_str(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(value, _ndarray()) and value.ndim == 1 and value.dtype == complex:
        return _json_vector(value, pad)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _ndarray():
    """numpy's array type, or ``()``, which nothing is an instance of,
    before numpy loads: no value is an array then, and a command that
    builds none never loads numpy."""
    numpy = sys.modules.get("numpy")
    return () if numpy is None else numpy.ndarray


def _json_vector(values: np.ndarray, pad: str) -> str:
    """JSON text of a 1-D complex128 array on a line indented by ``pad``:
    each element in the codec's form, as ``_json_text`` writes a complex
    number.  An array of at least ``_KERNEL_CELLS`` floats, counting both
    parts of an element, goes to ``floattext.json_vector``."""
    if not len(values):
        return "[]"
    if 2 * len(values) >= _KERNEL_CELLS:
        return floattext.json_vector(values, pad)
    inner = pad + "  "
    imag = values.imag
    items = [re if zero else f"[\n{inner}  {re},\n{inner}  {im}\n{inner}]"
             for re, im, zero in zip(map(json_float, values.real.tolist()),
                                     map(json_float, imag.tolist()), (imag == 0.0).tolist())]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _csv_code(column) -> str:
    """The printf code of a column, from the types of its cells: ``%.17g``
    for floats, ``%d`` for ints, ``%s`` for bools, strings and None (which
    ``_csv_cells`` turns into an empty cell)."""
    cells = column[:1].tolist() if isinstance(column, _ndarray()) else column
    types = set(map(type, cells))
    if all(issubclass(t, float) for t in types):
        return "%.17g"
    if all(issubclass(t, int) and t is not bool for t in types):
        return "%d"
    if types <= {bool, str, type(None)}:
        return "%s"
    raise TypeError("no CSV format for a column of "
                    + ", ".join(sorted(t.__name__ for t in types)))


def _csv_cells(cells) -> list:
    """The cells of a column slice as a list of Python values, None as an
    empty string."""
    if isinstance(cells, _ndarray()):
        return cells.tolist()
    return ["" if v is None else v for v in cells] if None in cells else cells


def _csv(columns: dict) -> Iterator[str]:
    """CSV text of columns: a header of their names, then one row per index.

    The columns are taken ``_CSV_CHUNK_ROWS`` rows at a time, so a long
    table is never held whole, as values or as text.  A chunk of fewer than
    ``_KERNEL_CELLS`` float cells, ``_KERNEL_CELLS`` more for each int or
    label column and a sixth as many more for each float column given as a
    list (records; stack sweeps of up to 27 rows, cond sweeps of up to 71,
    profile chunks of up to 55 and n_layers sweeps of up to 141), is
    written a row at a time: one ``%`` format of a template that holds one
    printf code per column (``_csv_code``; ``"%.17g" % v`` is
    ``float.__format__(v, ".17g")``), each row yielded alone.  A longer
    chunk (profiles, longer sweeps) is one byte matrix
    (``floattext.csv_pieces``) with the same bytes, yielded in pieces of
    whole rows.  Nothing is quoted: the writer takes the cells and names
    the commands write, numbers, True/False, empty cells and ASCII labels
    and names with no comma, quote or line break, in tables of at least
    two columns, where an empty cell is never a row of its own.
    """
    values = list(columns.values())
    lengths = {len(column) for column in values}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    codes = list(map(_csv_code, values))
    template = ",".join(codes) + "\n"
    floats = codes.count("%.17g")
    rows = max(lengths, default=0)
    kernel_cells = _KERNEL_CELLS * (1 + len(codes) - floats)
    if rows * floats >= kernel_cells:
        ndarray = _ndarray()
        listed = sum(code == "%.17g" and not isinstance(column, ndarray)
                     for code, column in zip(codes, values))
        kernel_cells += _KERNEL_CELLS * listed // 6
    yield ",".join(columns) + "\n"
    for start in range(0, rows, _CSV_CHUNK_ROWS):
        chunk = [column[start:start + _CSV_CHUNK_ROWS] for column in values]
        if len(chunk[0]) * floats >= kernel_cells:
            yield from floattext.csv_pieces(
                [column if code == "%.17g" else _csv_cells(column)
                 for column, code in zip(chunk, codes)], codes)
        else:
            yield from map(template.__mod__, zip(*map(_csv_cells, chunk)))


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
        data = load_json(args.coeffs_json, "--coeffs file")
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
        results.update(
            degenerate=False,
            theta_plus=pair.theta,
            theta_minus=pair.theta_minus,
            e_plus=pair.energy_plus,
            e_minus=pair.energy_minus,
            r_plus=pair.reflection_plus,
            r_minus=pair.reflection_minus,
        )
    return results


def _stack_scale(wavelength_nm, reference_nm) -> float:
    """Wavelength scale of ``--wavelength-nm`` (None: the reference)."""
    if wavelength_nm is None:
        return 1.0
    if reference_nm is None:
        raise CliConfigError("--wavelength-nm needs wavelength_nm in the stack file")
    if wavelength_nm <= 0:
        raise CliConfigError(f"--wavelength-nm must be positive, got {float(wavelength_nm)!r}")
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
    found = surface.decoupling_layer_number(args.cond)
    return {"n_exact": found.n_exact, "n_int": found.n_int, "residual": found.residual}


def _coeff_columns(results) -> dict:
    """t_re, t_im, r_re, r_im columns of results that carry t and r."""
    return {"t_re": [x.t.real for x in results], "t_im": [x.t.imag for x in results],
            "r_re": [x.r.real for x in results], "r_im": [x.r.imag for x in results]}


def _stack_sweep(args: argparse.Namespace) -> stack_mod.StackSweep:
    variable, values = args.sweep
    if not args.stack_file:
        raise CliConfigError(f"{variable} sweep requires --stack")
    stk, reference_nm = stack_mod.load_stack(args.stack_file)
    if variable == "wavelength_nm":
        if reference_nm is None:
            raise CliConfigError("wavelength_nm sweep needs wavelength_nm in the stack file")
        not_positive = values[values <= 0]
        if len(not_positive):
            raise CliConfigError("wavelength_nm sweep value must be positive, "
                                 f"got {float(not_positive[0])!r}")
        return stack_mod.solve_sweep(stk, values / reference_nm)
    # thickness: vary the last slab
    if not stk._layout.has_slab:
        raise CliConfigError("thickness sweep needs a slab in the stack")
    scale = _stack_scale(args.wavelength_nm, reference_nm)
    return stack_mod.solve_sweep(stk, [scale], last_slab_d=values)


def _cmd_sweep(args: argparse.Namespace) -> dict:
    # --jobs is accepted and ignored: a thread pool over these small,
    # GIL-bound numpy solves ran slower than the serial loop.
    import numpy as np

    variable, values = args.sweep
    if args.stack_file and variable in ("cond", "n_layers"):
        raise CliConfigError(f"--stack does not apply to --sweep {variable}")
    if args.wavelength_nm is not None and variable != "thickness":
        raise CliConfigError(f"--wavelength-nm does not apply to --sweep {variable}")
    if variable == "cond":
        params = [surface.SheetParams(cond=v, branching=args.branching,
                                      f_sign=args.f_sign) for v in values]
        coeffs = [surface.solve_single_sheet(p) for p in params]
        return {"cond": values, **_coeff_columns(coeffs),
                "A": [surface.absorbance(c, p) for c, p in zip(coeffs, params)],
                "abs_t_plus_r": [abs(c.t + c.r) for c in coeffs]}
    if variable == "n_layers":
        n_layers = [int(round(v)) for v in values]
        coeffs = [surface.nlayer_replacement(n, args.cond) for n in n_layers]
        return {"n_layers": n_layers, **_coeff_columns(coeffs),
                "abs_t_plus_r": [abs(c.t + c.r) for c in coeffs]}
    sweep = _stack_sweep(args)
    # a zero imaginary part is written as +0, the form the JSON codec gives
    # a complex number with zero imaginary part
    return {variable: values,
            "t_re": sweep.t.real, "t_im": np.where(sweep.t.imag == 0.0, 0.0, sweep.t.imag),
            "r_re": sweep.r.real, "r_im": np.where(sweep.r.imag == 0.0, 0.0, sweep.r.imag),
            "R": sweep.R, "T": sweep.T, "A": sweep.A, "R_emission": sweep.R_emission}


def _cmd_profile(args: argparse.Namespace) -> dict:
    import numpy as np

    if args.which == "a":
        for option, value in (("--b-r", args.b_r), ("--b-l", args.b_l)):
            if value is not None:
                raise CliConfigError(f"{option} does not apply to --which a")
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
    if not math.isfinite(args.k * args.x_max):
        raise CliConfigError(f"--k {args.k!r} with --x-max {args.x_max!r} "
                             "overflows the phase k*x")
    params = _sheet_params(args)
    if args.which == "a":
        coeffs = surface.solve_single_sheet(params)
        profile = fields_mod.eval_a(coeffs.t, coeffs.r, grid_x, k=args.k)
    else:
        if args.b_r is not None or args.b_l is not None:
            b_r = 0.0 if args.b_r is None else args.b_r
            b_l = 0.0 if args.b_l is None else args.b_l
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


#: Subcommand name -> its help line, its options in order and the function
#: that runs it.
_SUBCOMMANDS = {
    "coeffs": ("single-sheet coefficients and absorbance", _COMMON_OPTIONS, _cmd_coeffs),
    "twostate": ("two-state diagnostics for one sheet", _TWOSTATE_OPTIONS, _cmd_twostate),
    "stack": ("transfer-matrix solution of a stack file", _STACK_OPTIONS, _cmd_stack),
    "sweep": ("parameter sweep, CSV table", _SWEEP_OPTIONS, _cmd_sweep),
    "decouple": ("t + r = 0 layer-number search", _COMMON_OPTIONS, _cmd_decouple),
    "profile": ("field profile and gauge decomposition CSV", _PROFILE_OPTIONS, _cmd_profile),
}
#: Commands that return columns rather than a record; they emit CSV only.
_TABLE_COMMANDS = frozenset({"sweep", "profile"})
#: Commands whose sheet options ``run`` checks after the command, so that
#: its own errors come first.  coeffs, twostate and profile build the
#: sheet's ``SheetParams`` themselves.  decouple and the n_layers and stack
#: sweeps leave --branching unused and unchecked, and the cond and stack
#: sweeps --cond (a cond sweep builds one per swept value).
_SHEET_CHECKED_LATE = frozenset({"decouple", "sweep"})


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
    if args.command in _SHEET_CHECKED_LATE:
        _sheet_params(args)
    if args.fmt == "json":
        return _json_doc(args, results)
    if args.command in _TABLE_COMMANDS:
        return _csv(results)
    return _csv(_record_columns(results))


def _read(command: str, options: list) -> argparse.Namespace | None:
    """The namespace argparse gives ``options`` of ``command``, read straight
    from its option table, or None unless ``options`` are exact flags of the
    command, each followed by one value that argparse takes as a value, the
    required ones among them, with every value of the option's type and
    choices.  Help, abbreviations, ``--flag=value`` and every error are
    left to argparse.
    """
    by_flag, defaults, required = _FLAG_TABLES[command]
    if len(options) % 2:
        return None
    values = dict(defaults)
    given = set()
    for flag, text in zip(options[::2], options[1::2]):
        option = by_flag.get(flag)
        # argparse takes a token that starts with "-" for a flag, unless
        # _NEGATIVE_NUMBER matches it
        if option is None or text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
            return None
        value = text
        if option.type is not None:
            try:
                value = option.type(text)
            except ValueError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
        given.add(flag)
    if not required <= given:
        return None
    return argparse.Namespace(command=command, **values)


#: Subcommand name -> what ``_read`` reads its argv with: its options by
#: flag, each option's default by destination, and the required flags.
_FLAG_TABLES = {
    name: ({option.flag: option for option in options},
           {option.dest: option.default for option in options},
           frozenset(option.flag for option in options if option.required))
    for name, (_, options, _) in _SUBCOMMANDS.items()}


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of ``argv``: read from the subcommand's option table
    (``_read``), or else parsed by the whole parser.  A trailing ``--``
    after a subcommand's options is dropped."""
    if argv and argv[0] in _SUBCOMMANDS:
        if argv[-1:] == ["--"]:  # ends the options; argparse 3.11 rejects it
            argv = argv[:-1]
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _checked_args(_parse(argv))
        return _write(args, run(args))
    except (CliConfigError, ValueError, MemoryError) as exc:
        print(f"sheetoptics: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sheetoptics: i/o error: {exc}", file=sys.stderr)
        return 2
    except SheetOpticsError as exc:
        print(f"sheetoptics: numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
