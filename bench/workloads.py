"""Seeded command streams for the three benchmark workloads.

Every workload is an endless, deterministic stream of CLI commands: command
``i`` of a workload depends only on the seed and on ``i``.  Two devices keep
the mix of a run steady from seed to seed while every input value still
changes with the seed:

* categorical choices (command kind, output format, ``--jobs``) come from
  "decks": each block of consecutive commands holds every combination in a
  fixed proportion, shuffled per block;
* sizes (stack depth, sweep points, profile samples, conductance) are
  mapped log-uniformly from a van der Corput sequence with a small seeded
  shift, so any prefix of the stream covers the size range evenly
  (stratified sampling).

Input files are produced as text here; the runner writes them to disk before
the command and deletes them after it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

REFERENCE_NM = 633.0


@dataclass
class Command:
    """One CLI invocation plus what the oracle needs to check its output."""

    kind: str
    argv: list[str]
    spec: dict
    files: dict[str, str] = field(default_factory=dict)
    evals: int = 0  # stack evaluations the command asks for


def van_der_corput(j: int, base: int = 2) -> float:
    """Radical inverse of ``j``: a low-discrepancy sequence in [0, 1)."""
    value, denom = 0.0, 1.0
    while j:
        j, digit = divmod(j, base)
        denom *= base
        value += digit / denom
    return value


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


class _Stratified:
    """Van der Corput stream shifted by a small seeded amount.

    The shift is below 1/128 of the range, so the sizes of a run of a hundred
    or so commands keep the same spread from seed to seed (which keeps the
    latency percentiles steady) while each size still changes with the seed.
    """

    def __init__(self, rng: random.Random, base: int = 2):
        self.shift = rng.random() / 128.0
        self.base = base

    def at(self, j: int) -> float:
        return (van_der_corput(j, self.base) + self.shift) % 1.0


def _read_presets() -> dict:
    path = os.path.join("src", "sheetoptics", "data", "substrates.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _num(z: complex):
    """JSON form of a complex number: plain float when real, else [re, im]."""
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def stack_doc(rng: random.Random, pairs: int, ambient_out: complex,
              thick_d: float | None = None, thick_n: complex | None = None) -> dict:
    """Stack file content: ``pairs`` sheet+slab pairs, optionally a thick slab.

    Half the slabs are lossless and half absorbing; one sheet in eight has a
    complex conductance, which exercises the [re, im] codec.
    """
    layers = []
    for _ in range(pairs):
        cond: complex = rng.uniform(0.005, 0.05)
        if rng.random() < 0.125:
            cond = complex(cond, rng.uniform(-0.02, 0.02))
        layers.append({
            "type": "sheet",
            "cond": _num(cond),
            "branching": rng.uniform(0.2, 1.0),
            "f_sign": rng.choice((1, -1)),
            "sign": rng.choice((1, -1)),
        })
        n_im = 0.0 if rng.random() < 0.5 else rng.uniform(1e-3, 2e-2)
        layers.append({"type": "slab", "n_re": rng.uniform(1.3, 2.5),
                       "n_im": n_im, "d": rng.uniform(0.05, 0.5)})
    if thick_d is not None:
        layers.append({"type": "slab", "n_re": thick_n.real, "n_im": thick_n.imag,
                       "d": thick_d})
    return {"ambient_in": 1.0, "ambient_out": _num(ambient_out),
            "wavelength_nm": REFERENCE_NM, "layers": layers}


class Workload:
    """Base class: deterministic command ``i`` for a seed, plus a warm-up list."""

    name = ""
    deck: list = []

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        presets = _read_presets()
        self.substrates = {k: complex(v["n_re"], v["n_im"]) for k, v in presets.items()}
        self._decks: dict[int, list] = {}

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.name, self.seed) + tag))

    def slot(self, i: int):
        """Deck entry of command ``i``; each deck is shuffled by the seed."""
        d, pos = divmod(i, len(self.deck))
        if d not in self._decks:
            entries = list(self.deck)
            self.rng("deck", d).shuffle(entries)
            self._decks = {d: entries}
        return self._decks[d][pos]

    def ordinal(self, i: int) -> int:
        """How many earlier commands of the stream share command ``i``'s deck entry.

        Per-entry size streams indexed by this ordinal keep every entry's sizes
        stratified on their own, independent of where the shuffle put it.
        """
        d, pos = divmod(i, len(self.deck))
        entry = self.slot(i)
        before = [self.slot(d * len(self.deck) + k) for k in range(pos)]
        return d * self.deck.count(entry) + before.count(entry)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def command(self, i: int) -> Command:
        raise NotImplementedError

    def warmup(self) -> list[Command]:
        raise NotImplementedError


def _stack_command(wl: Workload, fname: str, doc: dict, fmt: str,
                   wavelength_nm: float | None, thick: bool) -> Command:
    argv = ["stack", "--stack", wl.path(fname)]
    if wavelength_nm is not None:
        argv += ["--wavelength-nm", repr(wavelength_nm)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    scale = 1.0 if wavelength_nm is None else wavelength_nm / REFERENCE_NM
    return Command(kind="stack", argv=argv, files={fname: json.dumps(doc)},
                   spec={"doc": doc, "scale": scale, "fmt": fmt, "thick": thick},
                   evals=1)


class StackDeep(Workload):
    """Deep ``stack`` solves: 100 to 1200 sheet+slab pairs, one per command."""

    name = "stack_deep"
    # 16 entries: a quarter CSV, half with --wavelength-nm, half on each preset
    # substrate.  One entry per deck is turned into a thick absorbing stack.
    deck = [(fmt, wl, sub) for fmt in ("json", "json", "json", "csv")
            for wl in (False, True) for sub in ("SiO2", "Si")]
    depth = (100, 1200)
    thick_d = (1.0e3, 4.0e3)  # wavelengths; 1e4 overflows the solver today

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sizes = _Stratified(self.rng("depth"))

    def _thick_slot(self, i: int) -> bool:
        d, pos = divmod(i, len(self.deck))
        return self.rng("thick", d).randrange(len(self.deck)) == pos

    def command(self, i: int) -> Command:
        fmt, use_wl, sub = self.slot(i)
        rng = self.rng("cmd", i)
        pairs = round(log_uniform(self.sizes.at(i), *self.depth))
        thick = self._thick_slot(i)
        doc = stack_doc(rng, pairs, self.substrates[sub],
                        thick_d=log_uniform(rng.random(), *self.thick_d) if thick else None,
                        thick_n=self.substrates["Si"])
        wavelength = rng.uniform(500.0, 800.0) if use_wl else None
        return _stack_command(self, f"deep{i}.json", doc, fmt, wavelength, thick)

    def warmup(self) -> list[Command]:
        rng = self.rng("warmup")
        return [
            _stack_command(self, "warm0.json", stack_doc(rng, 150, self.substrates["Si"]),
                           "json", None, False),
            _stack_command(self, "warm1.json", stack_doc(rng, 150, self.substrates["SiO2"]),
                           "csv", 700.0, False),
        ]


class SpectrumSweep(Workload):
    """Wavelength and thickness sweeps over shallow stacks."""

    name = "spectrum_sweep"
    deck = [(var, jobs) for var in ("wavelength_nm", "thickness") for jobs in (1, 1, 1, 2)]
    depth = (2, 80)
    points = (5, 50)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Two-dimensional Halton stream (bases 2 and 3) per deck entry.
        self.streams = {entry: (_Stratified(self.rng("depth", *entry), base=2),
                                _Stratified(self.rng("points", *entry), base=3))
                        for entry in set(self.deck)}

    def _sweep(self, fname: str, rng: random.Random, pairs: int, points: int,
               var: str, jobs: int) -> Command:
        sub = rng.choice(sorted(self.substrates))
        doc = stack_doc(rng, pairs, self.substrates[sub])
        if var == "wavelength_nm":
            start, stop = rng.uniform(450.0, 600.0), rng.uniform(650.0, 850.0)
        else:
            start, stop = 0.0, rng.uniform(0.2, 1.0)
        argv = ["sweep", "--stack", self.path(fname),
                "--sweep", f"{var}:{start!r}:{stop!r}:{points}"]
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        return Command(kind="sweep_stack", argv=argv, files={fname: json.dumps(doc)},
                       spec={"doc": doc, "var": var, "start": start, "stop": stop,
                             "steps": points},
                       evals=points)

    def command(self, i: int) -> Command:
        var, jobs = self.slot(i)
        depths, lengths = self.streams[(var, jobs)]
        j = self.ordinal(i)
        pairs = round(log_uniform(depths.at(j), *self.depth))
        points = round(log_uniform(lengths.at(j), *self.points))
        return self._sweep(f"sweep{i}.json", self.rng("cmd", i), pairs, points, var, jobs)

    def warmup(self) -> list[Command]:
        rng = self.rng("warmup")
        return [self._sweep("warm0.json", rng, 5, 6, "wavelength_nm", 1),
                self._sweep("warm1.json", rng, 5, 6, "thickness", 2)]


def _coeffs_closed_form(cond: complex, branching: float, f_sign: int) -> dict:
    g = complex(cond)
    t = 2.0 / (2.0 + g)
    r = -g / (2.0 + g)
    a = g.real * abs(t) ** 2
    f_mag = math.sqrt(2.0 * branching * a)
    return {"t": t, "r": r, "A": a, "b": -f_sign * (f_mag / 2.0) * t, "f_mag": f_mag}


class SheetTools(Workload):
    """Single-sheet commands: coeffs, twostate, decouple, cond/n_layers sweeps,
    profiles."""

    name = "sheet_tools"
    deck = (["coeffs_json"] * 3 + ["coeffs_csv"] * 2 + ["twostate"] * 2
            + ["twostate_file"] + ["decouple"] * 3 + ["sweep_cond"] * 2
            + ["sweep_nlayers"] * 2 + ["profile_a"] * 3 + ["profile_b"] * 2)
    decouple_cond = (1e-4, 1.0)
    profile_points = (1_000, 30_000)
    sweep_steps = (20, 200)
    nlayers_max = (20, 400)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.streams = {kind: _Stratified(self.rng("size", kind)) for kind in set(self.deck)}
        self._kind_index: dict[int, int] = {}

    @staticmethod
    def _sheet(rng: random.Random) -> tuple[float, float, int]:
        return (log_uniform(rng.random(), 1e-3, 3.0), rng.uniform(0.0, 1.0),
                rng.choice((1, -1)))

    @staticmethod
    def _sheet_argv(cond, branching, f_sign) -> list[str]:
        return ["--cond", repr(cond), "--branching", repr(branching),
                "--f-sign", str(f_sign)]

    def make(self, kind: str, u: float, rng: random.Random, tag: str) -> Command:
        cond, branching, f_sign = self._sheet(rng)
        if kind in ("coeffs_json", "coeffs_csv"):
            fmt = "csv" if kind == "coeffs_csv" else "json"
            argv = ["coeffs"] + self._sheet_argv(cond, branching, f_sign)
            if fmt == "csv":
                argv += ["--format", "csv"]
            return Command("coeffs", argv, {"cond": cond, "branching": branching,
                                            "f_sign": f_sign, "fmt": fmt})
        if kind in ("twostate", "twostate_file"):
            if rng.random() < 0.15:
                branching = 0.0  # b = 0: the degenerate branch
            overlap = rng.uniform(-0.9, 0.9)
            unit = rng.uniform(0.5, 2.0)
            argv = (["twostate"] + self._sheet_argv(cond, branching, f_sign)
                    + ["--overlap", repr(overlap), "--energy-unit", repr(unit)])
            coeffs = _coeffs_closed_form(cond, branching, f_sign)
            files = {}
            if kind == "twostate_file":
                g = complex(log_uniform(rng.random(), 1e-3, 2.0), rng.uniform(-1.0, 1.0))
                coeffs = _coeffs_closed_form(g, rng.uniform(0.2, 1.0), rng.choice((1, -1)))
                fname = f"coeffs{tag}.json"
                files[fname] = json.dumps({k: _num(v) for k, v in coeffs.items()})
                argv += ["--coeffs", self.path(fname)]
            return Command("twostate", argv, {"coeffs": coeffs, "unit": unit}, files)
        if kind == "decouple":
            g = log_uniform(u, *self.decouple_cond)
            return Command("decouple", ["decouple", "--cond", repr(g)], {"cond": g})
        if kind == "sweep_cond":
            steps = round(log_uniform(u, *self.sweep_steps))
            stop = rng.uniform(0.5, 5.0)
            argv = (["sweep", "--sweep", f"cond:0:{stop!r}:{steps}"]
                    + self._sheet_argv(cond, branching, f_sign))
            return Command("sweep_cond", argv, {"start": 0.0, "stop": stop, "steps": steps})
        if kind == "sweep_nlayers":
            n_max = round(log_uniform(u, *self.nlayers_max))
            argv = ["sweep", "--sweep", f"n_layers:1:{n_max}:{n_max}", "--cond", repr(cond)]
            return Command("sweep_nlayers", argv,
                           {"start": 1.0, "stop": float(n_max), "steps": n_max, "cond": cond})
        # profiles
        points = round(log_uniform(u, *self.profile_points))
        x_max, k = rng.uniform(1.0, 20.0), rng.uniform(0.5, 3.0)
        which = "a" if kind == "profile_a" else "b"
        argv = (["profile", "--which", which] + self._sheet_argv(cond, branching, f_sign)
                + ["--points", str(points), "--x-max", repr(x_max), "--k", repr(k)])
        coeffs = _coeffs_closed_form(cond, branching, f_sign)
        if which == "a":
            right, left = coeffs["t"], coeffs["r"]
        elif rng.random() < 0.5:
            right, left = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            argv += ["--b-r", repr(right), "--b-l", repr(left)]
        else:
            right = left = coeffs["b"]
        return Command("profile", argv, {"which": which, "points": points, "k": k,
                                         "right": right, "left": left})

    def command(self, i: int) -> Command:
        kind = self.slot(i)
        u = self.streams[kind].at(self.ordinal(i))
        return self.make(kind, u, self.rng("cmd", i), str(i))

    def warmup(self) -> list[Command]:
        rng = self.rng("warmup")
        return [self.make(kind, 0.25, rng, f"warm{n}")
                for n, kind in enumerate(sorted(set(self.deck)))]


WORKLOADS = {w.name: w for w in (StackDeep, SpectrumSweep, SheetTools)}


def write_files(cmd: Command, workdir: str) -> None:
    for name, text in cmd.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def remove_files(cmd: Command, workdir: str) -> None:
    for name in cmd.files:
        os.remove(os.path.join(workdir, name))


def digest_update(h: "hashlib._Hash", cmd: Command, workdir: str) -> None:
    """Fold a command's argv and input files into ``h``, independent of the
    work directory's name."""
    argv = [a.replace(workdir, "<work>") for a in cmd.argv]
    h.update(json.dumps(argv).encode())
    for name in sorted(cmd.files):
        h.update(name.encode())
        h.update(cmd.files[name].encode())


def inputs_digest(workload: Workload, count: int) -> str:
    h = hashlib.sha256()
    for i in range(count):
        digest_update(h, workload.command(i), workload.workdir)
    return h.hexdigest()
