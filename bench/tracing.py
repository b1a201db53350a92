"""Spans and counters around the kbonacci layers, installed from outside.

A Tracer wraps every public function of the six layers (cli, prover,
triangles, intpoly, decimation, sequences) wherever its name is looked up:
in the defining module, in every kbonacci module that imported the name,
and, for class methods such as IntPoly's operators, on the class.  An
import hook also puts a span around the execution of each kbonacci module,
because every CLI call is a fresh process that pays for those imports.

Span names are "<layer>.<function>" (IntPoly.__mul__ and __rmul__ are both
"intpoly.mul"; module bodies are "<layer>.import").  Time spent in the
tracer's own bookkeeping is left out of every span's self time.

In "time" mode each span is kept in memory as [id, parent, name, start_ns,
end_ns] and counts are taken from arguments and results at the boundary,
so they repeat exactly for the same requests.  In "memory" mode no spans
are kept; tracemalloc measures, per layer, the largest rise in traced
memory above the level at which the layer was entered.
"""

from __future__ import annotations

import functools
import importlib.machinery
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "prover", "triangles", "intpoly", "decimation", "sequences")

# (module, class, methods, span names); methods not listed are not layer calls
CLASS_METHODS = (
    ("intpoly", "IntPoly", {
        "__add__": "add", "__sub__": "sub", "__neg__": "neg", "__mul__": "mul",
        "__rmul__": "mul", "__pow__": "pow", "__divmod__": "divmod",
        "__floordiv__": "floordiv", "__mod__": "mod", "compose_power": "compose_power",
        "reverse": "reverse", "evaluate": "evaluate",
    }),
    ("decimation", "IntMatrix", {"__matmul__": "matmul", "__add__": "add", "__mul__": "scale"}),
    ("sequences", "LinearRecurrence", {"window": "window"}),
    ("sequences", "IdentityReport", {"residue_tallies": "residue_tallies"}),
)

_BUILDS_TRIANGLE = {
    "triangles.coeff_rows", "triangles.diff_rows",
    "triangles.coeff_row_from_charpoly", "triangles.diff_row_from_binomial",
}


def _entries(value) -> int:
    """Triangle entries in a result: a table of rows, one row, or one entry
    (column_one_closed_form's bool is not an entry)."""
    if isinstance(value, list):
        return sum(map(len, value)) if value and isinstance(value[0], list) else len(value)
    return int(type(value) is int)


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        # frame: [span id, name, layer, call_ns, start_ns, child_ns, base, peak]
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peak: dict[str, int] = defaultdict(int)
        self.char_poly_depth = 0
        if memory:
            tracemalloc.start()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        call_ns = time.perf_counter_ns()
        layer = name.partition(".")[0]
        parent = self.stack[-1] if self.stack else None
        if not name.endswith(".import"):
            if parent is None or parent[2] != layer:
                self.calls[layer] += 1
            self.calls[name] += 1
        if name == "decimation.char_poly":
            self.char_poly_depth += 1
        base = peak = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[7] = max(parent[7], peak)
            tracemalloc.reset_peak()
            peak = base
        frame = [len(self.spans), name, layer, call_ns, 0, 0, base, peak]
        if not self.memory:
            self.spans.append([frame[0], parent[0] if parent else None, name, 0, 0])
        self.stack.append(frame)
        frame[4] = time.perf_counter_ns()

    def exit(self, args: tuple, result, counted: bool = True) -> None:
        end_ns = time.perf_counter_ns()
        frame = self.stack.pop()
        span_id, name, layer, call_ns, start_ns, child_ns, base, peak = frame
        parent = self.stack[-1] if self.stack else None
        if name == "decimation.char_poly":
            self.char_poly_depth -= 1
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.peak[layer] = max(self.peak[layer], peak - base)
            if parent is not None:
                parent[7] = max(parent[7], peak)
        else:
            self.spans[span_id][3:] = [start_ns, end_ns]
            self.self_ns[name] += end_ns - start_ns - child_ns
            if counted:
                entry = parent is None or parent[2] != layer
                try:
                    self._count(name, layer, entry, args, result)
                except (AttributeError, TypeError, ValueError):
                    pass  # a result of another shape than today's: not counted
        if parent is not None:
            # the parent's self time excludes this span and the tracer's work
            parent[5] += time.perf_counter_ns() - call_ns

    def _count(self, name: str, layer: str, entry: bool, args: tuple, result) -> None:
        c = self.counts
        if name in _BUILDS_TRIANGLE:
            c["triangles.entries_built"] += _entries(result)
        if entry and layer == "triangles":
            c["triangles.entries_returned"] += _entries(result)
        if name == "intpoly.mul":
            a, b = args
            c["intpoly.mul.coeff_ops"] += len(a.coeffs) * (
                len(b.coeffs) if hasattr(b, "coeffs") else 1
            )
            self._bits("intpoly.max_coeff_bits", result.coeffs)
        elif name == "intpoly.divmod":
            num, den = (len(p.coeffs) for p in args)
            c["intpoly.divmod.coeff_ops"] += max(0, num - den + 1) * den
            for poly in result:
                self._bits("intpoly.max_coeff_bits", poly.coeffs)
            if self.char_poly_depth:
                c["decimation.char_poly.poly_divisions"] += 1
        elif name in ("decimation.matrix_power", "decimation.companion_matrix"):
            for row in result.entries:
                self._bits("decimation.max_entry_bits", row)
        elif name == "prover.verify_case_sums":
            c["prover.columns_checked"] += sum(t.total for t in result.values())
        elif name == "sequences.window":
            c["sequences.values_built"] += len(result.values)
            self._bits("sequences.max_value_bits", result.values)
        elif name == "sequences.check_identity":
            c["sequences.indices_checked"] += result.checked

    def _bits(self, key: str, values) -> None:
        self.counts[key] = max(self.counts[key], _max_bits(values))

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(args, None, counted=False)
                raise
            tracer.exit(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install_import_hook(self) -> None:
        """Give each kbonacci module body a '<layer>.import' span."""
        sys.meta_path.insert(0, _ImportSpans(self))

    def wrap_layers(self) -> None:
        """Replace every public function and listed method of the layers."""
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if name == "kbonacci" or name.startswith("kbonacci.")
        }
        # a layer, class or method the program no longer has is skipped, so
        # the benchmark keeps working (its counts read 0) after a refactor
        replaced = {}
        for layer in LAYERS:
            module = modules.get(layer)
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replaced[fn] = self._wrap(fn, f"{layer}.{attr}")
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            for attr, span in methods.items():
                if cls is not None and attr in vars(cls):
                    setattr(cls, attr, self._wrap(vars(cls)[attr], f"{layer}.{span}"))

    def report(self) -> dict:
        if self.memory:
            return {"peak_bytes": dict(self.peak)}
        return {
            "spans": self.spans,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


class _ImportSpans:
    """Meta-path finder that times the body of each kbonacci module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "kbonacci" and not fullname.startswith("kbonacci."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        name = fullname.rpartition(".")[2] + ".import"
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed(module):
            tracer.enter(name)
            try:
                exec_module(module)
            finally:
                tracer.exit((), None, counted=False)

        spec.loader.exec_module = timed
        return spec
