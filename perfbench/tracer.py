"""Span tracer that rebinds hypersos public functions from outside the package.

`Tracer.install()` replaces each function listed in TRACED, in every loaded
hypersos module that holds it, by a wrapper that records a span (name, start,
end, parent) in memory; methods are replaced on their class.  `uninstall()`
puts the originals back.  Self time is a span's duration minus the time its
child spans cover.  Counts read from return values sit next to the spans, and
COUNTED methods get a call count only, because they run too often to time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# layer -> public names; "Class" traces the constructor, "Class.method" a method
TRACED = {
    "polycore": (
        "restrict_to_line", "poly_determinant", "exact_divide", "poly_adjugate",
        "perfect_square_root", "parse_poly", "format_poly",
    ),
    "realroots": ("sturm_root_count", "is_real_rooted", "isolate_real_roots", "roots_interlace"),
    "exactla": ("solve_affine_family", "solve_linear", "ldl_psd", "mat_det"),
    "soscert": (
        "certify_sos", "certify_sos_mod_f", "scan_small_points", "second_order_obstruction",
        "constrain_basis_to_zeros", "GramSystem", "GramSystem.project_exact", "solve_sdp",
        "SosCertificate.verify",
    ),
    "hypercone": ("check_hyperbolic", "cone_membership", "interlaces", "delta_ij"),
    "detrep": (
        "build_detrep_multiaffine", "interlacer_matrix_multiaffine", "verify_detrep",
        "check_multiaffine_stable",
    ),
    "corpus": ("vamos_reproduction",),
    "cli": ("main",),
}
COUNTED = ("polycore.Polynomial.partial", "polycore.Polynomial.evaluate")
# call counts worth reporting: the ones an optimisation can move (the others
# are fixed by the workload's inputs)
REPORTED_CALLS = COUNTED + (
    "polycore.restrict_to_line", "polycore.poly_determinant", "polycore.exact_divide",
    "polycore.perfect_square_root", "realroots.sturm_root_count", "realroots.isolate_real_roots",
    "exactla.solve_affine_family", "exactla.solve_linear", "exactla.ldl_psd", "exactla.mat_det",
    "soscert.GramSystem", "soscert.solve_sdp",
)
LAYERS = tuple(TRACED)
OP_SPAN = "bench.op"

# counts read from return values: span name -> function(args, result, counter)
VALUE_COUNTS = {
    "soscert.scan_small_points": lambda a, r, c: c.update({"soscert.scan.zeros": len(r[0])}),
    "soscert.constrain_basis_to_zeros": lambda a, r, c: c.update(
        {"soscert.basis.before": len(a[0]), "soscert.basis.after": len(r)}
    ),
    "soscert.solve_sdp": lambda a, r, c: c.update({"soscert.solve_sdp.none": int(r is None)}),
}


def _rounding_successes(args, verdict, counter) -> None:
    """A certificate from the rounding ladder (not from a unique Gram point)."""
    rounded = verdict.is_yes and verdict.detail.startswith("exact PSD Gram")
    counter.update({"soscert.rounding.successes": int(rounded)})


VALUE_COUNTS["soscert.certify_sos"] = _rounding_successes
VALUE_COUNTS["soscert.certify_sos_mod_f"] = _rounding_successes


def _hypersos_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hypersos" or name.startswith("hypersos."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list = []  # [name index, start ns, end ns, parent span index or -1]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.values: Counter = Counter()
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        name_id = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._child_ns.append(0)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            children = self._child_ns.pop()
            duration = end - start
            self.spans[idx] = (name_id, start, end, parent)
            self.self_ns[name] += duration - children
            self.calls[name] += 1
            if self._child_ns:
                self._child_ns[-1] += duration
        hook = VALUE_COUNTS.get(name)
        if hook is not None:
            hook(args, result, self.values)
        return result

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m for m in _hypersos_modules()}
        for layer, names in TRACED.items():
            for qual in names:
                self._rebind(modules, layer, qual, self._span_wrapper)
        for full in COUNTED:
            layer, qual = full.split(".", 1)
            self._rebind(modules, layer, qual, self._count_wrapper)

    def _rebind(self, modules, layer: str, qual: str, make) -> None:
        name = f"{layer}.{qual}"
        owner = modules[layer]
        if "." in qual or qual[0].isupper():
            cls_name, _, method = qual.partition(".")
            cls = getattr(owner, cls_name)
            method = method or "__init__"
            orig = cls.__dict__[method]
            setattr(cls, method, make(name, orig))
            self._undo.append((cls, method, orig))
            return
        orig = getattr(owner, qual)
        wrapper = make(name, orig)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def counts(self) -> Counter:
        """Call counts and value counts together (deterministic)."""
        return self.calls + self.values

    def spans_jsonable(self) -> dict:
        return {"names": self.names, "spans": [list(s) for s in self.spans]}
