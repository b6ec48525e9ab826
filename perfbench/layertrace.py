"""Outside-in per-layer tracing of the ``repro`` package.

:func:`install` wraps every public function of each layer package
(``repro.<layer>``) — module-level functions and the methods classes define
in their own body — with a timing wrapper, and returns a :class:`LayerTrace`
whose :meth:`~LayerTrace.remove` puts every original back.  Nothing under
``src/`` changes; the wrappers live only in this process.

Per function the trace keeps the call count, total time and *self* time
(the span minus the time of the wrapped calls it covers).  Individual spans
are kept only at coarse boundaries — simulation steps, allocation rounds and
rate recomputes — each with the function that was on the stack when it began.

Properties, static/class methods and ``_private`` names are not wrapped,
with one exception: ``NetworkFabric._flush``, the rate flush the fabric
defers directly, so no public function covers it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: The ``repro`` sub-packages traced as layers, outermost first.
LAYERS = (
    "simulation",
    "scheduling",
    "hdfs",
    "managers",
    "core",
    "network",
    "faults",
    "obs",
    "workload",
    "cluster",
    "metrics",
)

#: Private functions wrapped anyway, because no public function covers them.
EXTRA = (("repro.network.fabric", "NetworkFabric", "_flush"),)

#: Functions whose individual spans are kept (all others are aggregated).
COARSE = (
    "repro.simulation.engine:Simulation.step",
    "repro.managers.custody:CustodyManager.reallocate",
    "repro.network.rate_engine:RateEngine.recompute",
)

#: Functions whose returned collection size is summed (flows per recompute).
SIZED = ("repro.network.rate_engine:RateEngine.recompute",)

MARK = "__perfbench_wrapper__"


class LayerTrace:
    """Aggregated per-function timings plus coarse spans of one traced run."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.returned: List[int] = []
        #: (function index, start, duration, parent function index or -1)
        self.spans: List[Tuple[int, float, float, int]] = []
        self._idx_stack: List[int] = []
        self._child_stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrapping
    def _register(self, key: str) -> int:
        self.keys.append(key)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.returned.append(0)
        return len(self.keys) - 1

    def _wrap(self, fn: Callable, key: str) -> Callable:
        idx = self._register(key)
        calls, total, self_time = self.calls, self.total, self.self_time
        idx_stack, child_stack = self._idx_stack, self._child_stack
        coarse, sized = key in COARSE, key in SIZED
        spans, returned = self.spans, self.returned

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = idx_stack[-1] if idx_stack else -1
            idx_stack.append(idx)
            child_stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    returned[idx] += len(result)
                return result
            finally:
                dur = perf_counter() - start
                idx_stack.pop()
                child = child_stack.pop()
                calls[idx] += 1
                total[idx] += dur
                self_time[idx] += dur - child
                if child_stack:
                    child_stack[-1] += dur
                if coarse:
                    spans.append((idx, start, dur, parent))

        setattr(wrapper, MARK, True)
        return wrapper

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def remove(self) -> None:
        """Restore every original function (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ----------------------------------------------------------- results
    def stats(self) -> Dict[str, Dict[str, float]]:
        """``{key: {calls, total_s, self_s[, returned]}}`` for called functions."""
        out: Dict[str, Dict[str, float]] = {}
        for i, key in enumerate(self.keys):
            if not self.calls[i]:
                continue
            row = {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            if key in SIZED:
                row["returned"] = self.returned[i]
            out[key] = row
        return out

    def span_dump(self) -> Dict[str, object]:
        """The coarse spans in a compact JSON-ready form."""
        return {
            "functions": self.keys,
            "columns": ["function", "start_s", "dur_s", "parent"],
            "spans": self.spans,
        }


def layer_modules():
    """Import and yield every module of the ``repro`` layer packages."""
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        yield package
        for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
            yield importlib.import_module(info.name)


def install() -> LayerTrace:
    """Wrap the public functions of every layer; see the module docstring."""
    trace = LayerTrace()
    wrapped_functions: Dict[int, Callable] = {}
    for module in layer_modules():
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, value in list(vars(obj).items()):
                    extra = (module.__name__, obj.__name__, attr) in EXTRA
                    if inspect.isfunction(value) and (not attr.startswith("_") or extra):
                        key = f"{module.__name__}:{obj.__name__}.{attr}"
                        trace._patch(obj, attr, trace._wrap(value, key))
            elif inspect.isfunction(obj) and not name.startswith("_"):
                wrapped_functions[id(obj)] = trace._wrap(obj, f"{module.__name__}:{name}")
    # Module-level functions are also reachable through ``from x import f``
    # copies in other modules: patch every reference in the package.
    if wrapped_functions:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrapped_functions.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    trace._patch(module, name, wrapper)
    return trace


def leftover_wrappers() -> List[str]:
    """Names of functions in ``repro`` still carrying a trace wrapper."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, obj in list(vars(module).items()):
            if getattr(obj, MARK, False):
                found.append(f"{module.__name__}:{name}")
            elif inspect.isclass(obj):
                for attr, value in list(vars(obj).items()):
                    if getattr(value, MARK, False):
                        found.append(f"{module.__name__}:{obj.__name__}.{attr}")
    return found
