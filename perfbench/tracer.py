"""Per-layer tracing of lgforge from outside the package.

``Tracer.install`` wraps the public functions and public methods of each
layer module (plus the arithmetic dunders of its classes) and rebinds every
name that refers to an original in any ``lgforge*`` module namespace.  That
matters because ``cli``, ``cover`` and ``mutation`` bind names with
``from .x import f``, and ``critical_values`` reaches ``critical_points``
through its module globals: patching only the defining module would leave
those calls untraced.  ``Tracer.uninstall`` puts every original back.

Spans live in memory as ``[layer, name, job, start, end, parent, child_time]``
lists; a span's self time is its duration minus the time its direct children
cover.  Generator functions (``LaurentPoly.powers``) are left unwrapped: their
body runs inside whichever span calls ``next`` on them, so their work (the
multiplications) is attributed there.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("parsing", "laurent", "periods", "cover", "lattice", "mutation", "critical", "cli")

# Operators whose work is real arithmetic; other dunders (__eq__, __hash__,
# __init__, ...) stay unwrapped and count toward their caller's self time.
ARITHMETIC_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__pow__",
})

LAYER, NAME, JOB, START, END, PARENT, CHILD = range(7)


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Records one span per call into a wrapped lgforge function."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            ("laurent", "LaurentPoly.__mul__"): self._on_mul,
            ("laurent", "LaurentPoly.__rmul__"): self._on_mul,
            ("periods", "period_sequence"): self._on_period_sequence,
            ("critical", "critical_points"): self._on_critical_points,
        }

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lgforge.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr in ARITHMETIC_DUNDERS
                        if public and _wrappable(member):
                            wrapper = self._wrap(layer, f"{obj.__name__}.{attr}", member)
                            self._patch(obj, attr, member, wrapper)
                elif _wrappable(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "lgforge" or modname.startswith("lgforge.")):
                continue
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, value, hit[1])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, original, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patches.append((target, attr, original))

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, name, tracer.job, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[END] = perf()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --------------------------------------------------------------- counters

    def _on_mul(self, args, kwargs, result) -> None:
        a, b = args
        if isinstance(b, type(a)):
            c = self.counters
            c["laurent.mul_calls"] += 1
            c["laurent.term_products"] += len(a) * len(b)
            c["laurent.max_support"] = max(c["laurent.max_support"], len(result))

    def _on_period_sequence(self, args, kwargs, result) -> None:
        bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
                   for q in result.coeffs)
        c = self.counters
        c["periods.max_coeff_bits"] = max(c["periods.max_coeff_bits"], bits)

    def _on_critical_points(self, args, kwargs, result) -> None:
        opts = args[1] if len(args) > 1 else kwargs.get("opts")
        if opts is None:
            opts = sys.modules["lgforge.critical"].SolverOptions()
        c = self.counters
        c["critical.searches"] += 1
        c["critical.starts"] += opts.starts
        c["critical.points_found"] += len(result.points)

    # -------------------------------------------------------------- summaries

    def per_layer(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per layer, with ``laurent.evaluate`` kept
        apart as ``laurent.eval``."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            key = "laurent.eval" if s[NAME] == "LaurentPoly.evaluate" else s[LAYER]
            busy[key] += s[END] - s[START] - s[CHILD]
            calls[key] += 1
        return busy, calls

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the first span, in microseconds."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[LAYER], s[NAME], s[JOB], round((s[START] - t0) * 1e6, 1),
                 round((s[END] - s[START]) * 1e6, 1),
                 round((s[END] - s[START] - s[CHILD]) * 1e6, 1), s[PARENT]]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["layer", "name", "job", "start_us", "dur_us",
                                   "self_us", "parent"], "spans": rows}, fh)
