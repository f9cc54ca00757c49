"""Layer spans recorded from outside the program.

``install`` replaces the public functions and methods that perisym's
modules call across module boundaries with wrappers that record a span
per call while an op is running.  A span keeps its layer, start, end,
parent span and self time (its duration minus the time covered by its
wrapped child spans).  Spans stay in memory, grouped by op id, until
``dump`` writes them out at the end of the run.

The program itself is not modified: functions are swapped in every
``perisym`` module namespace that holds them, methods on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


def _rows_and_cols(args):
    columns = args[1]
    rows = set()
    for col in columns:
        rows.update(col)
    return {"cols": len(columns), "rows": len(rows)}


def _weight(args):
    return tuple(int(a) for a in args[0])


# (module, attribute, layer name, attributes from (args, result),
#  repeat key from args).  Method attributes are written "Class.method".
FUNCTIONS = [
    ("perisym.schur", "schur_poly", "schur.schur_poly", None, _weight),
    ("perisym.schur", "schur_expand", "schur.schur_expand",
     lambda a, r: {"terms_in": len(a[0]), "weights_out": len(r.coeffs)}, None),
    ("perisym.thinkac", "sch_thin_kac", "thinkac.sch_thin_kac", None, _weight),
    ("perisym.dsmap", "kernel_decompose", "dsmap.kernel_decompose",
     lambda a, r: {"terms_in": len(a[0])}, None),
    ("perisym.dsmap", "ds_eval", "dsmap.ds_eval", None, None),
    ("perisym.dsmap", "membership", "dsmap.membership", None, None),
    ("perisym.lift", "certify", "lift.certify", None, None),
    ("perisym.lift", "lift_window", "lift.lift_window",
     lambda a, r: {"terms_out": len(r)}, None),
    ("perisym.intlinalg", "reduce_by_lattice", "intlinalg.reduce_by_lattice", None, None),
    ("perisym.euler", "euler_characteristic", "euler.euler_characteristic",
     lambda a, r: {"terms_out": len(r[0])}, None),
    ("perisym.serialize", "poly_from_dict", "serialize.poly_from_dict", None, None),
    ("perisym.serialize", "poly_to_dict", "serialize.poly_to_dict", None, None),
]

METHODS = [
    ("perisym.laurent", "LaurentPoly", ("exact_divide",), "laurent.exact_divide",
     lambda a, r: {"dividend_terms": len(a[0]), "divisor_terms": len(a[1])}),
    ("perisym.laurent", "LaurentPoly", ("__mul__", "__rmul__"), "laurent.mul", None),
    ("perisym.laurent", "LaurentPoly", ("__add__", "__radd__"), "laurent.add", None),
    ("perisym.lift", "Certificate", ("validate",), "lift.Certificate.validate", None),
    ("perisym.intlinalg", "EchelonSystem", ("__init__",), "intlinalg.EchelonSystem.factor",
     None),
    ("perisym.intlinalg", "EchelonSystem", ("solve",), "intlinalg.EchelonSystem.solve", None),
]

# Attributes measured before the call, because the call consumes its input.
PRE_ATTRS = {"intlinalg.EchelonSystem.factor": _rows_and_cols}

# The process-wide caches that hold every weight requested so far, by
# layer.  A call is a repeat when its weight is already a key, so repeats
# are counted without recording the requests made while nothing is
# wrapped.  Should a cache move, repeats fall back to the weights seen in
# traced ops.
REQUEST_CACHES = {"schur.schur_poly": ("perisym.schur", "_schur_cache"),
                  "thinkac.sch_thin_kac": ("perisym.thinkac", "_thin_kac_cache")}

class Tracer:
    """Spans of the current process, grouped by op id.

    ``op_id`` is None outside timed ops; wrapped calls made then record
    nothing.
    """

    def __init__(self):
        self.op_id = None
        self.spans: dict[int, list[tuple]] = defaultdict(list)
        self.stack: list[list] = []
        self.next_span = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.repeats: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack = []

    def end_op(self) -> None:
        self.op_id = None

    def enter(self, layer: str) -> list:
        span_id = self.next_span
        self.next_span += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, parent, layer, 0.0, clock()]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = clock()
        span_id, parent, layer, covered, start = frame
        self.stack.pop()
        duration = end - start
        own = duration - covered
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[layer] += 1
        self.self_s[layer] += own
        self.spans[self.op_id].append((span_id, parent, layer, start, end, own))

    def record(self, layer: str, seconds: float) -> None:
        """A span measured elsewhere (for example a child's start-up)."""
        now = clock()
        self.calls[layer] += 1
        self.self_s[layer] += seconds
        parent = self.stack[-1][0] if self.stack else None
        self.spans[self.op_id].append((self.next_span, parent, layer, now - seconds, now, seconds))
        self.next_span += 1

    def note_request(self, layer: str, key) -> None:
        cache = _request_cache(layer)
        seen = self.seen[layer] if cache is None else cache
        if key in seen:
            self.repeats[layer] += 1
        elif cache is None:
            seen.add(key)

    def adopt(self, path: str) -> None:
        """Merge a child process's trace into the current op.

        The child's top-level spans become children of the op span just
        recorded, whose self time shrinks by the time they cover.
        """
        with open(path, encoding="utf-8") as source:
            lines = [json.loads(line) for line in source]
        summary = lines[0]["summary"]
        spans = self.spans[self.op_id]
        root_index = len(spans) - 1
        root = spans[root_index]
        offset = self.next_span
        covered = 0.0
        for record in lines[1:]:
            for span_id, parent, layer, start, end, own in record["spans"]:
                if parent is None:
                    parent = root[0]
                    covered += end - start
                else:
                    parent += offset
                spans.append((span_id + offset, parent, layer, start, end, own))
                self.next_span = max(self.next_span, span_id + offset + 1)
        spans[root_index] = root[:5] + (root[5] - covered,)
        self.self_s[root[2]] -= covered
        for layer, count in summary["calls"].items():
            self.calls[layer] += count
        for layer, seconds in summary["self_s"].items():
            self.self_s[layer] += seconds
        for layer, sums in summary["attrs"].items():
            for key, value in sums.items():
                self.attrs[layer][key] += value
        for layer, count in summary["repeats"].items():
            self.repeats[layer] += count

    def inclusive(self) -> dict[str, float]:
        """Time inside each layer, counting a span nested in a span of the
        same layer (recursion) only once."""
        out: dict[str, float] = defaultdict(float)
        for spans in self.spans.values():
            nodes = {span[0]: (span[1], span[2]) for span in spans}
            for span_id, parent, layer, start, end, _ in spans:
                while parent is not None and nodes[parent][1] != layer:
                    parent = nodes[parent][0]
                if parent is None:
                    out[layer] += end - start
        return dict(out)

    def summary(self) -> dict:
        return {
            "inclusive_s": self.inclusive(),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "attrs": {k: dict(v) for k, v in self.attrs.items()},
            "repeats": dict(self.repeats),
        }

    def dump(self, path: str) -> None:
        """Write the summary and every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"summary": self.summary()}) + "\n")
            for op_id, spans in self.spans.items():
                out.write(json.dumps({"op": op_id, "spans": spans}) + "\n")


def _wrap(tracer: Tracer, layer: str, fn, attrs, repeat_key):
    pre = PRE_ATTRS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        if repeat_key is not None:
            tracer.note_request(layer, repeat_key(args))
        measured = pre(args) if pre is not None else None
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if measured is None and attrs is not None:
            measured = attrs(args, result)
        if measured:
            sums = tracer.attrs[layer]
            for key, value in measured.items():
                sums[key] += value
        return result

    return wrapper


def _request_cache(layer: str):
    where = REQUEST_CACHES.get(layer)
    module = sys.modules.get(where[0]) if where else None
    return getattr(module, where[1], None)


def install(tracer: Tracer) -> list:
    """Swap every traced function and method for its recording wrapper.

    Returns the undo list that ``uninstall`` takes.
    """
    import perisym  # noqa: F401  (loads every module named below)
    import perisym.cli  # noqa: F401
    import perisym.serialize  # noqa: F401

    undo = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "perisym" or name.startswith("perisym."))]
    for module_name, attr, layer, attrs, repeat_key in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, layer, original, attrs, repeat_key)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    undo.append((module, name, original))
    for module_name, cls_name, methods, layer, attrs in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        wrappers = {}
        for method in methods:
            original = cls.__dict__[method]
            if original not in wrappers:
                wrappers[original] = _wrap(tracer, layer, original, attrs, None)
            setattr(cls, method, wrappers[original])
            undo.append((cls, method, original))
    return undo


def uninstall(undo: list) -> None:
    """Put back every original that ``install`` swapped out."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
