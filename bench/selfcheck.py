"""Self-checks for the benchmark's own code.

* The generator is deterministic for a given seed and changes with the seed.
* The oracle's transfer-matrix product agrees with the program's
  ``nlayer_replacement`` closed form for zero-spacing stacks.
* The tracer's self times sum to the traced wall time, and it wraps a
  function in every namespace that refers to it.

Run from the repository root: ``python3 bench/selfcheck.py``.  The benchmark
runner calls the same functions before it measures anything.
"""

from __future__ import annotations

import os
import sys
import time
import types

import oracle
import workloads
from tracer import Tracer


class SelfCheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckError(message)


def check_generator(name: str, seed: int = 1, count: int = 8) -> None:
    cls = workloads.WORKLOADS[name]
    first = workloads.inputs_digest(cls(seed, "work-a"), count)
    again = workloads.inputs_digest(cls(seed, "work-b"), count)
    other = workloads.inputs_digest(cls(seed + 1, "work-a"), count)
    _require(first == again, f"{name}: same seed gave different inputs")
    _require(first != other, f"{name}: different seeds gave the same inputs")
    warm = [c.argv for c in cls(seed, "w").warmup()]
    _require(warm == [c.argv for c in cls(seed, "w").warmup()],
             f"{name}: warm-up commands are not deterministic")


def check_oracle_nlayer() -> None:
    from sheetoptics import stack

    for n in (1, 2, 3, 10, 87, 500):
        for g in (0.0229253, 0.3, 1.7, complex(0.05, 0.02)):
            layers = []
            for j in range(n):
                if j:
                    layers.append({"type": "slab", "n_re": 1.0, "n_im": 0.0, "d": 0.0})
                layers.append({"type": "sheet", "cond": [g.real, g.imag]
                               if isinstance(g, complex) else g})
            ref = oracle.solve_stack({"layers": layers})
            closed = stack.nlayer_replacement(n, g)
            try:
                oracle.close(ref["t"], closed.t, f"t for N={n}, g={g}")
                oracle.close(ref["r"], closed.r, f"r for N={n}, g={g}")
                if not isinstance(g, complex):
                    oracle.close(oracle.decouple_residual(n, g), abs(closed.t + closed.r),
                                 f"|t+r| for N={n}, g={g}")
            except oracle.Mismatch as exc:
                raise SelfCheckError(f"oracle disagrees with nlayer_replacement: {exc}")


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_tracer() -> None:
    inner_mod = types.ModuleType("inner_mod")
    outer_mod = types.ModuleType("outer_mod")
    exec("def leaf(s):\n    spin(s)\n"
         "def middle(s):\n    spin(s)\n    leaf(s)\n    leaf(s)\n",
         inner_mod.__dict__)
    inner_mod.spin = _spin
    # outer_mod calls inner.middle through the module object and holds a
    # direct reference to inner_mod.leaf, as cli and stack do.
    outer_mod.inner = inner_mod
    outer_mod.imported_leaf = inner_mod.leaf
    outer_mod.spin = _spin
    exec("def top(s):\n    spin(s)\n    inner.middle(s)\n    imported_leaf(s)\n",
         outer_mod.__dict__)
    original_leaf = inner_mod.leaf

    tracer = Tracer()
    tracer.install({"inner": inner_mod, "outer": outer_mod}, [inner_mod, outer_mod])
    try:
        wall0 = time.perf_counter()
        for cmd in range(5):
            tracer.begin_command(cmd)
            outer_mod.top(0.001)
        wall = time.perf_counter() - wall0
    finally:
        tracer.uninstall()
    _require(inner_mod.leaf is original_leaf and outer_mod.imported_leaf is original_leaf,
             "uninstall did not restore the original functions")
    summary = tracer.summary()
    _require(summary["inner.leaf"]["calls"] == 15,
             "a function referenced from another namespace was not wrapped")
    own = tracer.self_times()
    _require(min(own) >= 0.0, "negative self time")
    total_self, roots = sum(own), tracer.root_time()
    _require(abs(total_self - roots) <= 1e-9,
             f"self times sum to {total_self}, root spans cover {roots}")
    _require(0.9 * wall <= roots <= wall,
             f"root spans cover {roots} s of {wall} s traced wall time")


def run_all(names=None, count: int = 8) -> None:
    for name in names or workloads.WORKLOADS:
        check_generator(name, count=count)
    check_oracle_nlayer()
    check_tracer()


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "sheetoptics", "cli.py")):
        sys.exit("selfcheck: run from the repository root (src/sheetoptics not found)")
    sys.path.insert(0, os.path.abspath("src"))
    try:
        run_all(count=40)
    except SelfCheckError as exc:
        sys.exit(f"selfcheck failed: {exc}")
    print("selfcheck: generator, oracle and tracer checks passed")
