"""Closed-loop benchmark of the sheetoptics command-line front end.

Run from the repository root:

    python3 bench/run.py --workload stack_deep --seed 1 --seconds 12 --trace 0

One client in one process calls ``sheetoptics.cli.main(argv)`` in-process and
sends the next command only after the previous one returns.  The client adds
no threads; the only extra threads are the two workers of ``--jobs 2``
commands.  Commands come from a seeded generator (``workloads.py``); the
program sees only the generated argv and input files.  Every output is
checked against ``oracle.py`` outside the timed region.  Each command runs in
``REPEATS`` passes, and every execution's latency is scaled by a
machine-speed reference kernel timed next to it (``machine.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the workload
for half the time untraced, replays the same commands with every public
function of the layer modules wrapped (``tracer.py``), and prints the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported (here or in set-up children).
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

import machine  # noqa: E402
import oracle  # noqa: E402
import selfcheck  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SRC = os.path.abspath("src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.abspath(".bench_work")
REPEATS = 3
MIN_COMMANDS = 100
# Set-up trials run before each pass and after the last, spread over the run.
SETUP_TRIALS_PER_CHECKPOINT = 2
DIGEST_COMMANDS = 100
LAYERS = ("surface", "twostate", "stack", "fields", "cli")
# Per-element matrix builders run thousands of times per solve; a span each
# would swamp the trace.  Their time stays in the enclosing stack span, and
# ``stack.elements`` counts them.
UNTRACED = frozenset({"stack.sheet_matrix", "stack.propagation_matrix",
                      "stack.interface_matrix"})

# Runs in a fresh interpreter: import the CLI, then run the warm-up commands.
# The child then times the machine-speed kernel itself, on the CPU it ran on.
SETUP_CHILD = r"""
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import sheetoptics.cli as cli
t1 = time.perf_counter()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(f"warm-up command {argv} exited {code}")
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import machine
kernel = min(machine.kernel_seconds() for _ in range(3))
print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "kernel_s": kernel}))
"""


class Tally:
    """Outcome of the commands of one phase of a run.

    A phase runs its commands in ``REPEATS`` passes: the first pass sends
    commands 0, 1, ... and checks each output against the oracle; the later
    passes send the same argv on the same files again, in the same order, and
    must reproduce the first output byte for byte (the CLI promises
    deterministic output).  Every execution's latency is scaled by the
    machine-speed reference (``machine.py``), and a command's latency is the
    fastest of its scaled runs, which drops the runs hit by a burst.
    """

    def __init__(self):
        self._scaled: list[list[float]] = []
        self._raw: list[list[float]] = []
        self._outputs: list[tuple[int, str]] = []
        self._bad: set[int] = set()
        self._diverged: set[int] = set()
        self.spent = 0.0
        self.executions = 0
        self.rows = 0
        self.mismatches = 0
        self.problems: list[str] = []
        self.clamps = 0
        self.runtime_warnings = 0
        self.evals = 0
        self.kinds: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self._scaled)

    @property
    def failed(self) -> int:
        return len(self._bad)

    @property
    def latencies(self) -> list[float]:
        """Per command: fastest scaled latency over its runs."""
        return [min(runs) for runs in self._scaled]

    @property
    def busy(self) -> float:
        """Summed scaled latency of the commands."""
        return sum(self.latencies)

    @property
    def raw_latencies(self) -> list[float]:
        """Per command: fastest unscaled latency over its runs."""
        return [min(runs) for runs in self._raw]

    def _ran(self, cmd, seconds: float, caught) -> None:
        self.spent += seconds
        self.executions += 1
        self.evals += cmd.evals
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.runtime_warnings += 1
            elif "clamped" in str(w.message):
                self.clamps += 1

    def _fail(self, j: int, wrong: bool, text: str) -> None:
        self._bad.add(j)
        self.mismatches += wrong
        if len(self.problems) < 5:
            self.problems.append(text)

    def first(self, cmd, run, factor: float) -> None:
        code, seconds, out, err, caught = run
        j = len(self._scaled)
        self._ran(cmd, seconds, caught)
        self._scaled.append([seconds * factor])
        self._raw.append([seconds])
        self._outputs.append((code, hashlib.sha256(out.encode()).hexdigest()))
        self.kinds[cmd.kind] += 1
        if code != 0:
            self._fail(j, False, f"exit {code}: {' '.join(cmd.argv)}: {err.strip()[-300:]}")
            return
        records, problem = oracle.check(cmd.kind, cmd.spec, out)
        if problem is not None:
            self._fail(j, True, f"wrong output: {' '.join(cmd.argv)}: {problem}")
        self.rows += records

    def again(self, j: int, cmd, run, factor: float) -> None:
        code, seconds, out, _, caught = run
        self._ran(cmd, seconds, caught)
        self._scaled[j].append(seconds * factor)
        self._raw[j].append(seconds)
        if j not in self._diverged and \
                (code, hashlib.sha256(out.encode()).hexdigest()) != self._outputs[j]:
            self._diverged.add(j)
            self._fail(j, True, f"repeated run differs: {' '.join(cmd.argv)}")


def execute(cli, argv):
    """One timed ``cli.main`` call with stdout, stderr and warnings captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a benchmark error
                code = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue(), err.getvalue(), caught


def closed_loop(cli, wl, tally, *, budget=None, count=None, digest=None, tracer=None,
                checkpoint=None, min_commands=MIN_COMMANDS) -> int:
    """Run commands 0, 1, ... in ``REPEATS`` passes and return how many.

    The first pass stops after ``count`` commands or, without a count, at the
    first whole deck of at least ``min_commands`` commands once they have taken
    ``budget / REPEATS`` seconds; whole decks keep the mix of kinds and sizes
    exact.  Input files stay on disk until the last pass has run.
    ``checkpoint`` is called before each pass and after the last one.
    """
    sent = []
    deck = len(wl.deck)

    def more(i):
        if count is not None:
            return i < count
        return i < min_commands or i % deck or tally.spent < budget / REPEATS

    def run(i, cmd):
        if tracer is not None:
            tracer.begin_command(i)
        return execute(cli, cmd.argv)

    try:
        if checkpoint:
            checkpoint()
        scale = machine.Scale()
        i = 0
        while more(i):
            cmd = wl.command(i)
            if digest is not None and i < DIGEST_COMMANDS:
                workloads.digest_update(digest, cmd, wl.workdir)
            workloads.write_files(cmd, wl.workdir)
            sent.append(cmd)
            tally.first(cmd, run(i, cmd), scale.around())
            # Later passes need only the argv and the file names.
            cmd.spec, cmd.files = None, dict.fromkeys(cmd.files)
            i += 1
        for _ in range(REPEATS - 1):
            if checkpoint:
                checkpoint()
                scale = machine.Scale()
            for j, cmd in enumerate(sent):
                tally.again(j, cmd, run(j, cmd), scale.around())
        if checkpoint:
            checkpoint()
    finally:
        for cmd in sent:
            workloads.remove_files(cmd, wl.workdir)
    return len(sent)


def warm_up(cli, warm, tally) -> None:
    """Run the warm-up commands once, untimed, checking their outputs."""
    for cmd in warm:
        tally.first(cmd, execute(cli, cmd.argv), 1.0)


def measure_setup(warm, trials: int) -> list[float]:
    """Seconds to import the CLI in a fresh interpreter and run the warm-up
    commands, once per trial, scaled by the machine-speed reference."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(trials):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps([c.argv for c in warm]), BENCH],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up trial failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((child["import_s"] + child["warmup_s"])
                     * machine.NOMINAL_S / child["kernel_s"])
    return times


def git_commit() -> str:
    """Commit of the checkout, read from .git when there is one."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, digest: str, digest_count: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "inputs_digest_commands": digest_count,
        "pinned_threads": PINNED_THREADS,
    }


def end_to_end(tally, setup_trials) -> dict:
    """name -> (value, unit, sample count)."""
    d = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    n = tally.attempted
    return {
        "setup_s": (statistics.median(setup_trials), "s", len(setup_trials)),
        "cmd_p50_ms": (d[4] * 1e3, "ms", n),
        "cmd_p90_ms": (d[8] * 1e3, "ms", n),
        "cmds_per_s": (n / tally.busy, "1/s", n),
        "rows_per_s": (tally.rows / tally.busy, "1/s", tally.rows),
        "ok_ratio": ((n - tally.failed) / n, "ratio", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def _count_elements(counters, args, result):
    counters["stack.elements"] += len(result)


def _count_samples(counters, args, result):
    counters["fields.samples"] += args[0].x.size


def _count_singular(counters, span_name, exc):
    if type(exc).__name__ == "SingularStack" and not getattr(exc, "_bench_counted", False):
        counters["stack.singular"] += 1
        exc._bench_counted = True


def traced_replay(cli, wl, count: int, tally) -> Tracer:
    """Replay commands 0..count-1 with the layer modules' public functions wrapped."""
    tracer = Tracer(hooks={"stack.element_matrices": _count_elements,
                           "fields.write_profile_csv": _count_samples},
                    on_error=_count_singular)
    layers = {name: sys.modules[f"sheetoptics.{name}"] for name in LAYERS}
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "sheetoptics" or n.startswith("sheetoptics.")]
    tracer.install(layers, namespaces, skip=UNTRACED)
    try:
        closed_loop(cli, wl, tally, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer


def per_layer(tracer: Tracer, tally, untraced_busy: float) -> dict:
    """name -> (value, unit, sample count), normalised per command execution so
    that runs of different lengths compare."""
    summary = tracer.summary()
    n = tally.executions

    def spans(name, field="calls"):
        return summary.get(name, {}).get(field, 0)

    def layer(name, field):
        return sum(row[field] for span, row in summary.items() if span.startswith(name + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    try:
        scan = tracer.count_children("stack.nlayer_replacement", "stack.decoupling_layer_number")
    except ValueError:
        scan = 0
    decouples = tally.kinds["decouple"] * REPEATS
    samples = tracer.counters["fields.samples"]
    fields_self = layer("fields", "self_s")
    return {
        "stack.solves_per_eval": (ratio(spans("stack.stack_matrix"), tally.evals),
                                  "1/eval", tally.evals),
        "stack.elements": (tracer.counters["stack.elements"] / n, "1/cmd", n),
        "stack.self_s": (layer("stack", "self_s") / n, "s/cmd", n),
        "stack.load_stack_s": (ratio(spans("stack.load_stack", "total_s"),
                                     spans("stack.load_stack")),
                               "s/call", spans("stack.load_stack")),
        "stack.decouple_scan_calls": (ratio(scan, decouples), "1/cmd", decouples),
        "stack.singular": (tracer.counters["stack.singular"] / n, "1/cmd", n),
        "stack.emission_clamps": (tally.clamps / n, "1/cmd", n),
        "warnings.runtime": (tally.runtime_warnings / n, "1/cmd", n),
        "surface.calls": (layer("surface", "calls") / n, "1/cmd", n),
        "surface.self_s": (layer("surface", "self_s") / n, "s/cmd", n),
        "twostate.calls": (layer("twostate", "calls") / n, "1/cmd", n),
        "twostate.self_s": (layer("twostate", "self_s") / n, "s/cmd", n),
        "fields.samples": (samples / n, "1/cmd", n),
        "fields.self_s": (fields_self / n, "s/cmd", n),
        "fields.ns_per_sample": (ratio(fields_self, samples) * 1e9, "ns", samples),
        "cli.build_parser_s": (ratio(spans("cli.build_parser", "total_s"),
                                     spans("cli.build_parser")),
                               "s/call", spans("cli.build_parser")),
        "cli.self_s": (layer("cli", "self_s") / n, "s/cmd", n),
        "trace.overhead_ratio": (untraced_busy / tally.busy, "ratio", n),
    }


def report(env: dict, metrics: dict, tallies: list, extra: dict) -> None:
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print(f"# {name:<26} {value:>16.6g} {unit:<7} n={count}")
    for name, value in extra.items():
        print(f"# {name:<26} {value}")
    for tally in tallies:
        for problem in tally.problems:
            print(f"# problem: {problem}")
    attempted = sum(t.attempted for t in tallies)
    print(json.dumps({
        "correct": all(t.mismatches == 0 for t in tallies),
        "attempted": attempted,
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sheetoptics", "cli.py")):
        print("bench: src/sheetoptics not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sheetoptics.cli as cli

    try:
        selfcheck.run_all([args.workload], count=4)
    except selfcheck.SelfCheckError as exc:
        print(f"bench: self-check failed: {exc}", file=sys.stderr)
        return 1

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_cmds = wl.warmup()
        for cmd in warm_cmds:
            workloads.write_files(cmd, workdir)
        warm = Tally()
        warm_up(cli, warm_cmds, warm)
        gc.collect()
        gc.freeze()

        digest = hashlib.sha256()
        tally = Tally()
        if args.trace == 0:
            setup_trials: list[float] = []
            count = closed_loop(cli, wl, tally, budget=args.seconds, digest=digest,
                                checkpoint=lambda: setup_trials.extend(
                                    measure_setup(warm_cmds, SETUP_TRIALS_PER_CHECKPOINT)))
            metrics = end_to_end(tally, setup_trials)
            raw = statistics.quantiles(tally.raw_latencies, n=10, method="inclusive")
            extra = {"fail_ratio": f"{tally.failed / tally.attempted:.6g} ratio "
                                   f"n={tally.attempted}",
                     "unscaled cmd_p50_ms": f"{raw[4] * 1e3:.6g} ms n={tally.attempted}",
                     "unscaled cmd_p90_ms": f"{raw[8] * 1e3:.6g} ms n={tally.attempted}",
                     "stack.emission_clamps": f"{tally.clamps} n={tally.executions}",
                     "warnings.runtime": f"{tally.runtime_warnings} n={tally.executions}"}
            tallies = [warm, tally]
        else:
            # Per-layer figures need no latency percentiles: one deck suffices.
            count = closed_loop(cli, wl, tally, budget=args.seconds / 2.0, digest=digest,
                                min_commands=len(wl.deck))
            traced = Tally()
            tracer = traced_replay(cli, wl, count, traced)
            metrics = per_layer(tracer, traced, tally.busy)
            trace_path = os.path.join(WORK_ROOT, f"trace-{args.workload}.jsonl")
            tracer.write(trace_path)
            extra = {"spans": len(tracer.start),
                     "trace_file": os.path.relpath(trace_path)}
            tallies = [warm, tally, traced]
        env = environment(args, digest.hexdigest(), min(count, DIGEST_COMMANDS))
        report(env, metrics, tallies, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
