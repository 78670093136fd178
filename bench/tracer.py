"""Outside-in tracing of entquant's public functions.

The tracer replaces each listed function, in every loaded entquant module
that holds a reference to it, with a wrapper that records a span
(function, op, start, end, parent span). Spans stay in memory; totals()
turns them into calls and self time, where self time is a span's duration
minus the time its wrapped children cover. A listed function that the
program no longer has is reported as absent.

Run as a script, it traces one CLI invocation in a fresh process:

    python bench/tracer.py TOTALS.json analyze counts.csv --tomo
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

FUNCTIONS = {
    "optics": ("joint_projector", "phase_damping", "waveplate_unitary", "prepare_parallel", "prepare_antiparallel"),
    "algebra": ("expectation_value", "pure_to_density", "apply_local_unitary", "validate_density"),
    "counts": (
        "simulate_counts",
        "parse_counts_csv",
        "write_counts_csv",
        "g_from_counts",
        "k_from_counts",
        "joint_expectation",
        "marginal_expectation",
    ),
    "tomography": (
        "pauli_vector_from_counts",
        "linear_inversion",
        "project_to_physical",
        "reconstruct",
        "tomo_concurrence",
        "fidelity",
    ),
    "measures": ("concurrence", "concurrence_from_g", "g_measure", "k_measure"),
    "cli": ("main",),
}
NAMES = [f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns]


class Tracer:
    """Context manager: the wrappers are in place only inside `with tracer:`,
    and each entry starts a new op."""

    def __init__(self) -> None:
        self.spans: list = []  # (name index, op, start ns, end ns, parent span index)
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original, wrapper)
        originals = {}
        for idx, name in enumerate(NAMES):
            module_name, fn_name = name.split(".")
            try:
                originals[idx] = getattr(importlib.import_module(f"entquant.{module_name}"), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
        modules = [m for name, m in sys.modules.items() if name == "entquant" or name.startswith("entquant.")]
        for idx, original in originals.items():
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        self.op += 1
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, self.op, start, end, parent)

        return wrapper

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, self ns] over every recorded span."""
        covered = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: [0, 0] for name in NAMES}
        for (idx, _, start, end, _), child in zip(self.spans, covered):
            entry = out[NAMES[idx]]
            entry[0] += 1
            entry[1] += end - start - child
        return out


def _trace_one_invocation(totals_path: str, argv: list[str]) -> int:
    cli = importlib.import_module("entquant.cli")
    tracer = Tracer()
    try:
        with tracer:
            return cli.main(argv)
    finally:
        with open(totals_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals(), "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(_trace_one_invocation(sys.argv[1], sys.argv[2:]))
