"""Span recorder for the traced benchmark mode.

The recorder wraps every public function of each tourkit layer module,
in every tourkit module namespace that binds it, so calls between
modules and calls inside one module both pass through a wrapper. Each
wrapped call records one span: the function, its start and end, its busy
time, and the span that was open when it began. A generator function
gets one span whose busy time is the sum of its resumptions.

A layer's self time is the busy time of its spans minus the busy time of
their direct child spans; nested spans of the same layer add their own
self time, so nothing is counted twice. Spans stay in memory and are
written out once, when the run ends.

Layer counters are read at the same boundaries from arguments and return
values, so they need no counters inside the program.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "digraphs",
    "coloring",
    "nae",
    "orderedhom",
    "forcing",
    "regularity",
    "lowerbound",
    "hardness",
    "formats",
    "cli",
)

# counters read from one function's arguments and result:
# qualified name -> list of (counter, fn(args, result) -> number)
_COUNTERS = {
    "nae.solve_nae": [
        ("nae.clauses", lambda a, r: len(a[1])),
        ("nae.unsat_calls", lambda a, r: r is None),
    ],
    "hardness.reduce_graph": [
        ("hardness.tournament_vertices", lambda a, r: r.tournament.n),
    ],
    "coloring.cyclic_triangles": [
        ("coloring.cyclic_triangles", lambda a, r: len(r)),
    ],
    "lowerbound.audit_copy_localization": [
        ("lowerbound.copies", lambda a, r: r.total_copies),
    ],
    "lowerbound.farness_certificate": [
        ("lowerbound.copies", lambda a, r: r.count),
    ],
    "digraphs.count_embeddings": [
        ("digraphs.embeddings", lambda a, r: r),
    ],
    "forcing.certify_completion": [
        ("forcing.certified_copies", lambda a, r: r.count),
    ],
    "regularity.strong_decomposition": [
        ("regularity.attempts", lambda a, r: getattr(r, "attempts", 0)),
    ],
}

# counted once per yielded item of a generator function
_YIELD_COUNTERS = {
    "digraphs.enumerate_embeddings": "digraphs.embeddings",
}


def _text_bytes(args, result) -> int:
    size = sum(len(a) for a in args if isinstance(a, str))
    if isinstance(result, str):
        size += len(result)
    return size


class SpanRecorder:
    """Records spans while installed; ``uninstall`` restores the modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_calls = [0] * len(LAYERS)
        self.layer_failed = [0] * len(LAYERS)
        self.function_calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        # stack of [span index, layer index, child busy time]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "tourkit" or name.startswith("tourkit."))
        }
        wrappers: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            mod = modules[f"tourkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", li)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _name_id(self, qualname: str, layer: int) -> int:
        self.names.append(qualname)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _open(self, name_id: int, layer: int) -> int:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        self.layer_calls[layer] += 1
        return idx

    def _close(self, idx: int, layer: int, start: float, end: float, child: float) -> None:
        busy = end - start
        if self.span_busy[idx] == 0.0:
            self.span_start[idx] = start
        self.span_end[idx] = end
        self.span_busy[idx] += busy
        self.layer_self[layer] += busy - child
        if self._stack:
            self._stack[-1][2] += busy

    def _count(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _failed(self, exc: BaseException, layer: int) -> None:
        # count an exception once, in the layer that raised it
        if type(exc).__name__ in ("BudgetExceeded", "AuditError") and not getattr(
            exc, "_bench_counted", False
        ):
            self.layer_failed[layer] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def _wrap(self, fn, qualname: str, layer: int):
        name_id = self._name_id(qualname, layer)
        counters = _COUNTERS.get(qualname, ())
        yield_counter = _YIELD_COUNTERS.get(qualname)
        count_bytes = qualname.startswith("formats.")
        recorder = self
        calls = self.function_calls
        calls[qualname] = 0

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[qualname] += 1
                idx = recorder._open(name_id, layer)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [idx, layer, 0.0]
                        recorder._stack.append(frame)
                        start = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException as exc:
                            recorder._failed(exc, layer)
                            raise
                        finally:
                            end = perf_counter()
                            recorder._stack.pop()
                            recorder._close(idx, layer, start, end, frame[2])
                        if yield_counter:
                            recorder._count(yield_counter, 1)
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            stack = recorder._stack
            outer = stack[-1][1] if stack else -1
            idx = recorder._open(name_id, layer)
            frame = [idx, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder._failed(exc, layer)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                recorder._close(idx, layer, start, end, frame[2])
            for counter, read in counters:
                recorder._count(counter, read(args, result))
            if count_bytes and outer != layer:
                recorder._count("formats.bytes", _text_bytes(args, result))
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time, call count, failures and counters."""
        out: dict[str, float] = {}
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.layer_self[li]
            out[f"{layer}.calls"] = self.layer_calls[li]
            out[f"{layer}.failed"] = self.layer_failed[li]
        out.update(self.counters)
        calls = self.function_calls
        out["orderedhom.find_oph_calls"] = calls.get("orderedhom.find_oph", 0)
        out["orderedhom.ordered_core_calls"] = calls.get("orderedhom.ordered_core", 0)
        cores = out["orderedhom.ordered_core_calls"]
        out["orderedhom.oph_per_core"] = (
            out["orderedhom.find_oph_calls"] / cores if cores else 0.0
        )
        out["lowerbound.behrend_calls"] = calls.get("lowerbound.behrend", 0)
        return out

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart\tend\tbusy\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                    f"{self.span_busy[i]:.9f}\n"
                )
        return len(self.span_name)
