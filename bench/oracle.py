"""Reference values for every benchmark command, in plain Python.

The oracle never calls the program.  It recomputes each output from the
physics: closed forms for single sheets, |2 - Ng| / |2 + Ng| for the
decoupling layer number, a complex 2x2 transfer-matrix product for stacks,
and t, r (or b_r, b_l) with e^{+-ikx} for profile samples.  Values are
compared, not bytes, to a relative tolerance ``RTOL`` (plus ``ATOL`` for
values near zero), so a solver that changes only the last digits still
passes.  Stacks holding a thick absorbing slab are checked only for finite
t, r and for R, T in [0, 1]: their transmitted amplitude sits hundreds of
decades below 1, where only the order of magnitude is meaningful.

``check`` returns the number of output records (a JSON document counts as
one, and so does each CSV data row) and a problem description, or None when
the output matches.
"""

from __future__ import annotations

import cmath
import json
import math

RTOL = 1e-6
ATOL = 1e-12
ANGLE_TOL = 1e-9
TWO_PI = 2.0 * math.pi
SAMPLED_ROWS = 6       # sweep rows per command checked against the full product
SAMPLED_PROFILE = 64   # profile rows per command checked against the formula


class Mismatch(Exception):
    pass


def _c(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def close(actual, expected, what: str) -> None:
    a, e = complex(actual), complex(expected)
    if not (cmath.isfinite(a) and abs(a - e) <= RTOL * max(abs(a), abs(e)) + ATOL):
        raise Mismatch(f"{what}: got {a!r}, expected {e!r}")


def close_angle(actual, expected, what: str) -> None:
    gap = abs((actual - expected + math.pi) % TWO_PI - math.pi)
    if not gap <= ANGLE_TOL:
        raise Mismatch(f"{what}: got {actual!r}, expected {expected!r} (mod 2 pi)")


def in_unit_interval(value, what: str) -> None:
    if not (math.isfinite(value) and -ATOL <= value <= 1.0 + ATOL):
        raise Mismatch(f"{what} = {value!r} outside [0, 1]")


# ---------------------------------------------------------------------------
# Transfer-matrix reference


def _matmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _interface(n1: complex, n2: complex):
    """Index step seen from medium n2 (exit) into medium n1 (entry)."""
    s = 1.0 / (2.0 * n2)
    return ((n2 + n1) * s, (n2 - n1) * s, (n2 - n1) * s, (n2 + n1) * s)


def stack_elements(doc: dict, scale: float) -> list[tuple[bool, tuple]]:
    """(is_sheet, exit-to-entry matrix) per element, in stack order.

    An interface factor is inserted at every slab boundary; when both sides
    have the same index it is the identity.
    """
    current = _c(doc.get("ambient_in", 1.0))
    out = []
    for layer in doc["layers"]:
        if layer["type"] == "sheet":
            h = _c(layer.get("cond", 0.0)) / 2.0
            out.append((True, (1.0 + h, h, -h, 1.0 - h)))
            continue
        n = complex(layer.get("n_re", 1.0), layer.get("n_im", 0.0))
        out.append((False, _interface(n, current)))
        phi = TWO_PI * n * layer["d"] / scale
        out.append((False, (cmath.exp(-1j * phi), 0.0, 0.0, cmath.exp(1j * phi))))
        current = n
    out.append((False, _interface(_c(doc.get("ambient_out", 1.0)), current)))
    return out


def solve_stack(doc: dict, scale: float = 1.0) -> dict:
    """t, r, R, T, A and the field at every sheet, from (1, r) = M (t, 0)."""
    elements = stack_elements(doc, scale)
    m = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    for _, e in elements:
        m = _matmul(m, e)
    t = 1.0 / m[0]
    r = m[2] / m[0]
    v0, v1 = t, 0j
    fields = []
    for is_sheet, (a, b, c, d) in reversed(elements):
        if is_sheet:
            fields.append(v0 + v1)
        v0, v1 = a * v0 + b * v1, c * v0 + d * v1
    ratio = _c(doc.get("ambient_out", 1.0)).real / _c(doc.get("ambient_in", 1.0)).real
    big_r = abs(r) ** 2
    big_t = ratio * abs(t) ** 2
    return {"t": t, "r": r, "R": big_r, "T": big_t, "A": 1.0 - big_r - big_t,
            "sheet_fields": fields[::-1]}


def single_sheet(g: complex) -> tuple[complex, complex]:
    g = complex(g)
    return 2.0 / (2.0 + g), -g / (2.0 + g)


def decouple_residual(n: int, g: float) -> float:
    """|t_N + r_N| for N zero-spacing sheets: |2 - N g| / |2 + N g|."""
    return abs(2.0 - n * g) / abs(2.0 + n * g)


# ---------------------------------------------------------------------------
# Output parsing


def _record(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if len(lines) != 2:
        raise Mismatch(f"expected a header and one CSV row, got {len(lines)} lines")
    rec = {}
    for key, value in zip(lines[0].split(","), lines[1].split(",")):
        rec[key] = None if value == "" else float(value)
    return rec


def _get(rec: dict, key: str):
    """A scalar or complex value from a JSON document or a flattened CSV row."""
    if key in rec:
        value = rec[key]
        return None if value is None else _c(value)
    if f"{key}_re" in rec:
        return complex(rec[f"{key}_re"], rec[f"{key}_im"])
    raise Mismatch(f"output has no field {key!r}")


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines[0].split(",") != header:
        raise Mismatch(f"unexpected CSV header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Per-command checks


def _check_stack_values(rec: dict, doc: dict, scale: float, thick: bool,
                        fields_present: bool) -> None:
    t, r = _get(rec, "t"), _get(rec, "r")
    R, T = _get(rec, "R").real, _get(rec, "T").real
    in_unit_interval(R, "R")
    in_unit_interval(T, "T")
    in_unit_interval(_get(rec, "R_emission").real, "R_emission")
    if thick:
        for name, value in (("t", t), ("r", r), ("A", _get(rec, "A"))):
            if not cmath.isfinite(value):
                raise Mismatch(f"{name} = {value!r} is not finite")
        return
    ref = solve_stack(doc, scale)
    for key in ("t", "r", "R", "T", "A"):
        close(_get(rec, key), ref[key], key)
    if fields_present:
        got = rec["sheet_fields"]
        if len(got) != len(ref["sheet_fields"]):
            raise Mismatch(f"{len(got)} sheet fields for {len(ref['sheet_fields'])} sheets")
        for j, (a, e) in enumerate(zip(got, ref["sheet_fields"])):
            close(_c(a), e, f"sheet_fields[{j}]")


def check_stack(spec: dict, out: str) -> int:
    rec = _record(out, spec["fmt"])
    _check_stack_values(rec, spec["doc"], spec["scale"], spec["thick"],
                        fields_present=spec["fmt"] == "json")
    return 1


def _sweep_values(spec: dict) -> list[float]:
    start, stop, steps = spec["start"], spec["stop"], spec["steps"]
    if steps == 1:
        return [start]
    return [start + (stop - start) * k / (steps - 1) for k in range(steps)]


def _sample(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})


STACK_SWEEP_HEADER = ["t_re", "t_im", "r_re", "r_im", "R", "T", "A", "R_emission"]


def check_sweep_stack(spec: dict, out: str) -> int:
    var, doc = spec["var"], spec["doc"]
    rows = _csv_rows(out, [var] + STACK_SWEEP_HEADER)
    values = _sweep_values(spec)
    if len(rows) != len(values):
        raise Mismatch(f"{len(rows)} sweep rows for {len(values)} points")
    sampled = set(_sample(len(rows), SAMPLED_ROWS))
    for k, (row, value) in enumerate(zip(rows, values)):
        x, t_re, t_im, r_re, r_im, R, T, A, R_em = (float(v) for v in row)
        close(x, value, f"row {k} {var}")
        for name, v in (("R", R), ("T", T), ("R_emission", R_em)):
            in_unit_interval(v, f"row {k} {name}")
        close(A, 1.0 - R - T, f"row {k} A")
        if k not in sampled:
            continue
        if var == "wavelength_nm":
            ref = solve_stack(doc, value / doc["wavelength_nm"])
        else:
            layers = list(doc["layers"])
            last = max(i for i, layer in enumerate(layers) if layer["type"] == "slab")
            layers[last] = dict(layers[last], d=value)
            ref = solve_stack(dict(doc, layers=layers))
        close(complex(t_re, t_im), ref["t"], f"row {k} t")
        close(complex(r_re, r_im), ref["r"], f"row {k} r")
        close(R, ref["R"], f"row {k} R")
        close(T, ref["T"], f"row {k} T")
    return len(rows)


def check_sweep_cond(spec: dict, out: str) -> int:
    rows = _csv_rows(out, ["cond", "t_re", "t_im", "r_re", "r_im", "A", "abs_t_plus_r"])
    values = _sweep_values(spec)
    if len(rows) != len(values):
        raise Mismatch(f"{len(rows)} sweep rows for {len(values)} points")
    for k, (row, g) in enumerate(zip(rows, values)):
        x, t_re, t_im, r_re, r_im, a, s = (float(v) for v in row)
        t, r = single_sheet(g)
        close(x, g, f"row {k} cond")
        close(complex(t_re, t_im), t, f"row {k} t")
        close(complex(r_re, r_im), r, f"row {k} r")
        close(a, g * abs(t) ** 2, f"row {k} A")
        close(s, abs(t + r), f"row {k} |t+r|")
    return len(rows)


def check_sweep_nlayers(spec: dict, out: str) -> int:
    rows = _csv_rows(out, ["n_layers", "t_re", "t_im", "r_re", "r_im", "abs_t_plus_r"])
    values = _sweep_values(spec)
    if len(rows) != len(values):
        raise Mismatch(f"{len(rows)} sweep rows for {len(values)} points")
    for k, (row, value) in enumerate(zip(rows, values)):
        n = round(value)
        if row[0] != str(n):
            raise Mismatch(f"row {k}: n_layers {row[0]!r}, expected {n}")
        t_re, t_im, r_re, r_im, s = (float(v) for v in row[1:])
        t, r = single_sheet(n * spec["cond"])
        close(complex(t_re, t_im), t, f"row {k} t")
        close(complex(r_re, r_im), r, f"row {k} r")
        close(s, abs(t + r), f"row {k} |t+r|")
    return len(rows)


def check_coeffs(spec: dict, out: str) -> int:
    rec = _record(out, spec["fmt"])
    g = complex(spec["cond"])
    t, r = single_sheet(g)
    a = g.real * abs(t) ** 2
    f_mag = math.sqrt(2.0 * spec["branching"] * a)
    close(_get(rec, "t"), t, "t")
    close(_get(rec, "r"), r, "r")
    close(_get(rec, "A"), a, "A")
    close(_get(rec, "b"), -spec["f_sign"] * (f_mag / 2.0) * t, "b")
    close(_get(rec, "f_mag"), f_mag, "f_mag")
    return 1


def check_twostate(spec: dict, out: str) -> int:
    rec = json.loads(out)
    c, u = spec["coeffs"], spec["unit"]
    t, r, b = complex(c["t"]), complex(c["r"]), complex(c["b"])
    s = t + r
    close(_get(rec, "offdiagonal"), u * b.conjugate() * s, "offdiagonal")
    if abs(s) < 1e-14 or abs(b) < 1e-14:
        if rec["degenerate"] is not True or rec["theta_plus"] is not None:
            raise Mismatch("expected the degenerate branch")
        close(rec["e_plus"], 0.0, "e_plus")
        return 1
    if rec["degenerate"] is not False:
        raise Mismatch("unexpected degenerate branch")
    z = s.conjugate() * b
    theta = (-cmath.phase(z)) % TWO_PI
    close_angle(rec["theta_plus"], theta, "theta_plus")
    close_angle(rec["theta_minus"], theta + math.pi, "theta_minus")
    close(rec["e_plus"], 2.0 * u * abs(z), "e_plus")
    close(rec["e_minus"], -2.0 * u * abs(z), "e_minus")
    correction = s / abs(s) * abs(b)
    close(_get(rec, "r_plus"), r + correction, "r_plus")
    close(_get(rec, "r_minus"), r - correction, "r_minus")
    return 1


def check_decouple(spec: dict, out: str) -> int:
    rec = json.loads(out)
    g = spec["cond"]
    close(rec["n_exact"], 2.0 / g, "n_exact")
    candidates = {max(1, math.floor(2.0 / g)), max(1, math.ceil(2.0 / g))}
    best = min(decouple_residual(n, g) for n in candidates)
    n_int = rec["n_int"]
    if n_int not in candidates or decouple_residual(n_int, g) > best * (1 + RTOL) + ATOL:
        raise Mismatch(f"n_int = {n_int!r}, expected the minimiser of {sorted(candidates)}")
    close(rec["residual"], decouple_residual(n_int, g), "residual")
    return 1


PROFILE_HEADER = ["x", "re_right", "im_right", "re_left", "im_left",
                  "re_polar", "im_polar", "re_axial", "im_axial", "side"]


def check_profile(spec: dict, out: str) -> int:
    rows = _csv_rows(out, PROFILE_HEADER)
    points = spec["points"]
    if len(rows) not in (points + 2, points + 3):
        raise Mismatch(f"{len(rows)} profile rows for {points} points")
    sides = [row[-1] for row in rows]
    zero = [k for k, side in enumerate(sides) if side != "bulk"]
    if [sides[k] for k in zero] != ["minus", "plus"]:
        raise Mismatch("profile must hold exactly one 0- and one 0+ sample")
    # Scattering state: incident 1 and reflected r on the left, t on the right.
    # Emission state: b_l going left on the left, b_r going right on the right.
    if spec["which"] == "a":
        left_side, right_side = (1.0, spec["left"]), (spec["right"], 0.0)
    else:
        left_side, right_side = (0.0, spec["left"]), (spec["right"], 0.0)
    k_wave = spec["k"]
    for k in sorted(set(_sample(len(rows), SAMPLED_PROFILE)) | set(zero)):
        vals = [float(v) for v in rows[k][:-1]]
        x = vals[0]
        on_left = x < 0.0 or sides[k] == "minus"
        right, left = left_side if on_left else right_side
        phase = cmath.exp(1j * k_wave * x)
        close(complex(vals[1], vals[2]), right, f"row {k} right")
        close(complex(vals[3], vals[4]), left, f"row {k} left")
        close(complex(vals[5], vals[6]), (right * phase + left / phase) / 2.0, f"row {k} polar")
        close(complex(vals[7], vals[8]), (right * phase - left / phase) / 2.0, f"row {k} axial")
    return len(rows)


CHECKS = {
    "stack": check_stack,
    "sweep_stack": check_sweep_stack,
    "sweep_cond": check_sweep_cond,
    "sweep_nlayers": check_sweep_nlayers,
    "coeffs": check_coeffs,
    "twostate": check_twostate,
    "decouple": check_decouple,
    "profile": check_profile,
}


def check(kind: str, spec: dict, out: str) -> tuple[int, str | None]:
    try:
        return CHECKS[kind](spec, out), None
    except Mismatch as exc:
        return 0, str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 0, f"unparseable output: {exc!r}"
