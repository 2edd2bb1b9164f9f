"""One benchmark operation in a fresh process, optionally traced.

    python perfbench/worker.py [--spans FILE] cli <phasefisher CLI arguments...>
    python perfbench/worker.py [--spans FILE] oracle <alpha> <eta> <reference>

`cli` runs `phasefisher.cli.main` on the arguments and exits with its code.
`oracle` builds one ECS scenario, takes its numeric QFI and prints the value.

With --spans, every public function of the six phasefisher modules is
wrapped where it is bound (in its own module, in the modules that import
it and in the package namespace), and so is DensityOperator construction.
Each call records a span (name, start, end, parent) in memory. At exit the
spans are written to FILE as JSON, and a per-name summary (calls, self
time, counters) to FILE's `.summary.json` sibling. Self time is a span's
duration minus that of its children; the time the counters themselves take
is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

MODULES = ("fock_core", "states", "channels", "qfi_analytic", "qfi_oracle", "cli")


def _support(matrix) -> int:
    """Basis states whose row or column carries any exact nonzero."""
    nz = matrix != 0
    return int((nz.any(axis=0) | nz.any(axis=1)).sum())


class Tracer:
    def __init__(self) -> None:
        # one [name, start_ns, end_ns, parent, child_ns] per call, in start order
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"dense_bytes": 0, "loss_occupied": 0, "loss_dim": 0, "support_max": 0}

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0, 0, parent, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]
            if hook is not None:
                hook(self, args, result)
                if parent >= 0:
                    spans[parent][4] += perf_counter_ns() - end
            return result

        return traced

    def summary(self) -> dict:
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for name, start, end, _, child in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - child)
        return {
            "calls": calls,
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "counters": self.counters,
        }

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], start, end, parent] for n, start, end, parent, _ in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": names, "spans": spans}, fh)
        with open(path.removesuffix(".json") + ".summary.json", "w", encoding="ascii") as fh:
            json.dump(self.summary(), fh)


def _count_density(tracer: Tracer, args, result) -> None:
    tracer.counters["dense_bytes"] += 16 * args[0].truncation.dim ** 2


def _count_loss(tracer: Tracer, args, result) -> None:
    tracer.counters["loss_occupied"] += _support(result.matrix)
    tracer.counters["loss_dim"] += result.truncation.dim


def _count_support(tracer: Tracer, args, result) -> None:
    c = tracer.counters
    c["support_max"] = max(c["support_max"], _support(args[0].matrix))


HOOKS = {
    "channels.apply_loss": _count_loss,
    "qfi_oracle.qfi_numeric": _count_support,
}


def install(tracer: Tracer) -> None:
    """Replace every public phasefisher function, wherever it is bound, by a traced one."""
    package = importlib.import_module("phasefisher")
    modules = {m: importlib.import_module(f"phasefisher.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    density = modules["fock_core"].DensityOperator
    density.__post_init__ = tracer.wrap(
        "fock_core.DensityOperator", density.__post_init__, _count_density
    )


def run_oracle(alpha: str, eta: str, reference: str) -> int:
    from phasefisher import qfi_oracle, states

    probe = states.ProbeSpec("ecs", float(eta), alpha=float(alpha))
    value = qfi_oracle.scenario_qfi(qfi_oracle.build_scenario(probe, reference)).value
    print(repr(value))
    return 0


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = Tracer()
    if spans_path is not None:
        install(tracer)
    try:
        if argv[0] == "cli":
            from phasefisher import cli

            return cli.main(argv[1:])
        return run_oracle(*argv[1:])
    finally:
        if spans_path is not None:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
