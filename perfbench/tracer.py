"""Spans and counts around the public functions of each ktoric layer.

The package imports by name (``from .polyring import buchberger``), so a
function has one binding in the module that defines it and one more in every
module that imported it. ``Tracer.install`` replaces the function object in
every loaded ``ktoric`` module that holds it, and ``GroebnerBasis.reduce`` on
the class; otherwise calls across modules would go untraced.

A span records its name, start and end on the process CPU clock, its parent
span and the instance id. Spans stay in memory until ``write_spans``. Self
time is the span's duration minus the time covered by its child spans. The
tracer's own work (input keys, span records, result statistics) is kept out
of both the span and its parent's self time and summed in ``overhead_s``.
"""

import json
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in that layer's module. A span is named
# "<layer>.<function>"; GroebnerBasis.reduce is the span "polyring.reduce".
LAYERS = {
    "polytope": ("minimal_nonfaces", "validate_polytope", "ascending_faces",
                 "order_vertices"),
    "charmap": ("validate_charmap", "dual_basis"),
    "intlinalg": ("rat_rank", "rat_det", "rat_inverse", "rat_solve"),
    "polyring": ("buchberger", "s_polynomial", "standard_monomials",
                 "render_poly"),
    "kring": ("compute_basis", "build_presentation", "quotient_basis",
              "invert_unit", "evaluate_in_quotient", "ring_map_check"),
    "bott": ("bott_equivalence", "laurent_rank", "involution_check",
             "bott_charmap", "bott_presentation", "bott_samelson_presentation"),
    "jsonio": ("polytope_from_dict", "charmap_from_dict", "bott_from_dict",
               "cartan_word_from_dict", "vertex_order_from_dict",
               "validate_report", "kring_report", "bott_report",
               "samelson_report", "compare_report", "dumps"),
    "cli": ("main",),
}

# Spans reported together under one metric name.
GROUPS = {
    "bott.bott_presentation": "bott.presentation",
    "bott.bott_samelson_presentation": "bott.presentation",
}
for _name in LAYERS["jsonio"]:
    if _name.endswith("_from_dict"):
        GROUPS["jsonio." + _name] = "jsonio.parse"
    elif _name.endswith("_report"):
        GROUPS["jsonio." + _name] = "jsonio.report"

ELIMINATIONS = tuple("intlinalg." + f for f in LAYERS["intlinalg"])


def _matrix_key(args):
    return tuple(tuple(row) for row in args[0])


def _gb_input_key(args):
    gens, order = args[0], args[1]
    return (tuple(tuple(sorted((m.exps, c) for m, c in g.terms.items()))
                  for g in gens), order.priority)


def _gb_result_stats(result):
    bits = 0
    for g in result.generators:
        for c in g.terms.values():
            bits = max(bits, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
    return len(result.generators), bits


class Tracer:
    """Wraps ktoric's public functions; records spans and counts."""

    def __init__(self):
        self.spans = []           # (name, start, end, parent index, instance)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.distinct = defaultdict(set)  # distinct inputs, "intlinalg" shared
        self.gb_generators = 0
        self.gb_max_coeff_bits = 0
        self.report_bytes = 0
        self.overhead_s = 0.0     # time spent in the wrappers themselves
        self.instance = None
        self._stack = []          # [span index, child time] of open spans
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        key_of, inputs = None, None
        if name in ELIMINATIONS:
            key_of, inputs = _matrix_key, self.distinct["intlinalg"]
        elif name == "polyring.buchberger":
            key_of, inputs = _gb_input_key, self.distinct[name]
        tracer = self

        def traced(*args, **kwargs):
            t_enter = time.process_time()
            if key_of is not None:
                inputs.add(key_of(args))
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            result = None
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.instance)
                tracer.self_s[name] += (end - start) - frame[1]
                tracer.calls[name] += 1
                if result is not None:
                    tracer._observe(name, result)
                t_exit = time.process_time()
                tracer.overhead_s += (start - t_enter) + (t_exit - end)
                if tracer._stack:
                    tracer._stack[-1][1] += t_exit - t_enter
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, result):
        """Statistics read from results: basis sizes, coefficient bits and
        report bytes."""
        if name == "polyring.buchberger":
            gens, bits = _gb_result_stats(result)
            self.gb_generators += gens
            self.gb_max_coeff_bits = max(self.gb_max_coeff_bits, bits)
        elif name == "jsonio.dumps":
            self.report_bytes += len(result.encode("utf-8"))

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every binding of each wrapped function in the loaded
        ktoric modules. Returns self so it can be used in a with statement."""
        from ktoric.polyring import GroebnerBasis

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ktoric" or n.startswith("ktoric."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"ktoric.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        orig_reduce = GroebnerBasis.reduce
        GroebnerBasis.reduce = self._wrap("polyring.reduce", orig_reduce)
        self._restore.append((GroebnerBasis, "reduce", orig_reduce))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def distinct_ratio(self, inputs, names):
        """Distinct inputs recorded under `inputs` per call of `names`."""
        calls = sum(self.calls[n] for n in names)
        return len(self.distinct[inputs]) / calls if calls else 0.0

    def grouped_self_s(self):
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[GROUPS.get(name, name)] += s
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
