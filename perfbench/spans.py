"""Spans around the calls into each tpe layer, for the traced run.

The benchmark wraps the functions below from the outside; the program is not
edited.  A wrapper replaces the function at every binding site: the defining
module, every `from tpe.x import f` name in the other tpe modules, and, for
methods, every class attribute that holds the same function (TowerElement
binds `__rmul__ = __mul__`).  Each call records a span (id, parent id, name,
input id, start, end); self time is a span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (metric prefix, module, attribute); "Class.method" names a method
TARGETS = (
    ("algebra.discriminant", "tpe.algebra", "discriminant"),
    ("algebra.is_squarefree", "tpe.algebra", "is_squarefree"),
    ("algebra.splits_completely_mod_p", "tpe.algebra", "splits_completely_mod_p"),
    ("algebra.roots_mod_p", "tpe.algebra", "roots_mod_p"),
    ("tower.split_places", "tpe.tower", "split_places"),
    ("tower.mul", "tpe.tower", "TowerElement.__mul__"),
    ("tower.tower_invert", "tpe.tower", "tower_invert"),
    ("tower.reduce_element", "tpe.tower", "reduce_element"),
    ("curve.has_good_reduction", "tpe.curve", "has_good_reduction"),
    ("curve.count_points_mod_p", "tpe.curve", "count_points_mod_p"),
    ("curve.on_curve", "tpe.curve", "on_curve"),
    ("curve.reduce_point", "tpe.curve", "reduce_point"),
    ("jacobian.add", "tpe.jacobian", "Jacobian.add"),
    ("jacobian.mul", "tpe.jacobian", "Jacobian.mul"),
    ("jacobian.divisor_order", "tpe.jacobian", "divisor_order"),
    ("jacobian.torsion_decide", "tpe.jacobian", "torsion_decide"),
    ("envelope.verify_tpe", "tpe.envelope", "verify_tpe"),
    ("envelope.verify_certificate", "tpe.envelope", "verify_certificate"),
    ("envelope.theorem_conclusion", "tpe.envelope", "theorem_conclusion"),
    ("families.generate_cd", "tpe.families", "generate_cd"),
    ("families.generate_dd", "tpe.families", "generate_dd"),
    ("families.generate_xpx", "tpe.families", "generate_xpx"),
    ("docio.document_to_json", "tpe.docio", "document_to_json"),
    ("docio.load_document", "tpe.docio", "load_document"),
    ("docio.report_to_obj", "tpe.docio", "report_to_obj"),
    ("docio.dumps_canonical", "tpe.docio", "dumps_canonical"),
    ("cli.main", "tpe.cli", "main"),
)

# Jacobian.add splits by coefficient domain; Jacobian.mul is traced over
# number fields only (over F_p it is the benchmark's own answer check).
SPAN_NAMES = tuple(
    name
    for prefix, _, _ in TARGETS
    for name in {
        "jacobian.add": ("jacobian.add_fp", "jacobian.add_exact"),
        "jacobian.mul": ("jacobian.mul_exact",),
    }.get(prefix, (prefix,))
)


def _tpe_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "tpe" or k.startswith("tpe.")]


def _max_bits(divisor) -> int:
    bits = 0
    for poly in (divisor.u, divisor.v):
        for c in poly.coeffs:
            for q in getattr(c, "coeffs", {}).values():
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.order_sum = 0
        self.exact_max_bits = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.input_id = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._undo: list[tuple] = []
        self._originals: list = []

    # -- span recording ---------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            self.spans[sid] = (sid, parent, name, self.input_id, start, end)

    def _wrapper(self, prefix, fn):
        from tpe.algebra import PrimeField

        call = self._call
        if prefix == "jacobian.add":
            def wrapper(jac, *args, **kwargs):
                exact = not isinstance(jac.field, PrimeField)
                name = "jacobian.add_exact" if exact else "jacobian.add_fp"
                return call(name, fn, (jac, *args), kwargs)
        elif prefix == "jacobian.mul":
            def wrapper(jac, *args, **kwargs):
                if isinstance(jac.field, PrimeField):
                    return fn(jac, *args, **kwargs)
                result = call("jacobian.mul_exact", fn, (jac, *args), kwargs)
                self.exact_max_bits = max(self.exact_max_bits, _max_bits(result))
                return result
        elif prefix == "jacobian.divisor_order":
            def wrapper(*args, **kwargs):
                order = call(prefix, fn, args, kwargs)
                self.order_sum += order
                return order
        elif prefix == "docio.dumps_canonical":
            def wrapper(*args, **kwargs):
                text = call(prefix, fn, args, kwargs)
                self.bytes_out += len(text.encode("utf-8"))
                return text
        elif prefix == "docio.load_document":
            def wrapper(path, *args, **kwargs):
                self.bytes_in += os.path.getsize(path)
                return call(prefix, fn, (path, *args), kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(prefix, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        for prefix, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrapper(prefix, original)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._undo.append((owner, key, value))
                        setattr(owner, key, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self._wrapper(prefix, original)
                for mod in _tpe_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            self._originals.append(original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def unpatched_sites(self) -> list[str]:
        """Binding sites that still hold an unwrapped target; empty when the
        patching is complete."""
        originals = {id(o) for o in self._originals}
        sites = []
        for mod in _tpe_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    sites.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            sites.append(f"{mod.__name__}.{key}.{attr}")
        return sites

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        add_calls = self.calls["jacobian.add_fp"]
        per_call = self.self_ns["jacobian.add_fp"] / 1e3 / add_calls if add_calls else 0.0
        out["jacobian.add_fp.us_per_call"] = (per_call, "us")
        out["jacobian.order_sum"] = (self.order_sum, "count")
        out["jacobian.exact_max_bits"] = (self.exact_max_bits, "bits")
        out["docio.bytes_out"] = (self.bytes_out, "B")
        out["docio.bytes_in"] = (self.bytes_in, "B")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: id, parent, name, input, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
