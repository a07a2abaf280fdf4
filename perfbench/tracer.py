"""Span tracer that wraps the public functions of the scatzip modules.

The wrappers live in the benchmark, not in the program: `install` replaces
every binding of a wrapped function in every scatzip module namespace, so a
name imported by value (``measures.dense_spectrum`` beside
``zipper.dense_spectrum``, ``transfer.phi`` beside ``scattering.phi``) gets the
same wrapper as its home module.  Methods are wrapped on their class, which
every importer shares.

A span is (name, start, end, parent, job).  Spans are appended to compact
arrays and written out by `dump`; layer self time, outermost busy time per
name and per layer, and call counts are accumulated as spans close.  A span's
layer is the module that defines the function.  Each thread keeps its own
stack of open spans, so spans in the worker threads of the CLI's pools have
no parent, and the waiting pool counts as self time of the span that waits;
busy seconds add up over threads.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "fileio", "ensembles", "zipper", "scattering", "transfer",
          "oscillation", "weyl", "measures", "matrix_core")

# Helpers that cost about as much as a span are left unwrapped; their time
# counts as self time of the calling layer.
SKIP = {
    "matrix_core": {"as_cmatrix", "eye", "adj", "lform", "jform", "cayley",
                    "split_blocks", "join_blocks", "hermitize"},
    "zipper": {"Zipper.block"},
    "transfer": {"TransferFactory.phi_at"},
}
# Private names wrapped because a layer boundary or a per-layer count needs them.
EXTRA = {
    "transfer": {"_qr_positive"},  # imported by value into oscillation
    "oscillation": {"_BranchTracker.__init__", "_refine_crossing"},
}


class JobCapped(BaseException):
    """Raised inside a job that ran past its wall-clock cap.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


class SweepCapped(JobCapped):
    """Raised inside an oscillation sweep that ran past its evaluation cap."""


class _ThreadState:
    """The spans and totals of one thread; worker threads of the CLI's pools
    get their own, so recording takes no lock."""

    def __init__(self, n_names: int):
        self.t0 = array("d")
        self.t1 = array("d")
        self.nid = array("i")
        self.parent = array("i")
        self.jid = array("i")
        self.stack: list[int] = []
        self.child: list[float] = []
        self.calls = [0] * n_names
        self.name_busy = [0.0] * n_names
        self.name_depth = [0] * n_names
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_busy = [0.0] * len(LAYERS)
        self.layer_depth = [0] * len(LAYERS)


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.after: dict = {}  # span name -> fn(result, args, kwargs), run on return
        self.lock = threading.Lock()  # for hooks that add to shared totals
        self._threads: list[_ThreadState] = []
        self._local = threading.local()
        self._wrappers: dict = {}  # id of the wrapped function -> wrapper
        self._wrapper_ids: set = set()

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(len(self.names))
            with self.lock:
                self._threads.append(st)
        return st

    def _enter(self, nid: int) -> _ThreadState:
        st = self._state()
        st.parent.append(st.stack[-1] if st.stack else -1)
        st.stack.append(len(st.t0))
        st.child.append(0.0)
        st.nid.append(nid)
        st.jid.append(self.job)
        st.t1.append(0.0)
        st.calls[nid] += 1
        st.name_depth[nid] += 1
        st.layer_depth[self.layer_of[nid]] += 1
        st.t0.append(time.perf_counter())
        return st

    def _exit(self, st: _ThreadState):
        now = time.perf_counter()
        idx = st.stack.pop()
        child = st.child.pop()
        nid = st.nid[idx]
        layer = self.layer_of[nid]
        dur = now - st.t0[idx]
        st.t1[idx] = now
        st.layer_self[layer] += dur - child
        if st.child:
            st.child[-1] += dur
        st.name_depth[nid] -= 1
        if st.name_depth[nid] == 0:
            st.name_busy[nid] += dur
        st.layer_depth[layer] -= 1
        if st.layer_depth[layer] == 0:
            st.layer_busy[layer] += dur

    def end_job(self):
        """Close spans that an interrupted job left open on this thread."""
        st = self._state()
        while st.stack:
            self._exit(st)

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._name_id(name, layer)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st)
            hook = tracer.after.get(name)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        self._wrappers[key] = wrapper
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    @staticmethod
    def _wanted(layer: str, qualname: str) -> bool:
        if qualname in EXTRA.get(layer, ()):
            return True
        if qualname in SKIP.get(layer, ()):
            return False
        return not any(part.startswith("_") for part in qualname.split("."))

    def install(self, package: str = "scatzip"):
        """Wrap every function and method of the layer modules, at every binding."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))}
        for modname in LAYERS:
            mod = modules[f"{package}.{modname}"]
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, modname)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or id(obj) in self._wrapper_ids:
                    continue
                home = getattr(obj, "__module__", "") or ""
                layer = home.rsplit(".", 1)[-1]
                if not home.startswith(package + ".") or layer not in LAYERS:
                    continue
                if self._wanted(layer, obj.__qualname__):
                    setattr(mod, attr, self._wrap(obj, f"{layer}.{obj.__qualname__}", layer))

    def _wrap_class(self, cls, layer: str):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            qual = f"{cls.__name__}.{attr}"
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated field assignment; __post_init__ holds the work
            ctor = attr in ("__init__", "__post_init__") and not cls.__name__.startswith("_")
            if ctor or self._wanted(layer, qual):
                setattr(cls, attr, self._wrap(fn, f"{layer}.{qual}", layer))

    # -- results --------------------------------------------------------------

    def _total(self, field: str, index: int):
        return sum(getattr(st, field)[index] for st in self._threads)

    def count(self, name: str) -> int:
        return sum(self._total("calls", i) for i, n in enumerate(self.names) if n == name)

    def busy(self, name: str) -> float:
        return sum(self._total("name_busy", i) for i, n in enumerate(self.names) if n == name)

    def layer_self(self, layer: str) -> float:
        return self._total("layer_self", LAYERS.index(layer))

    def layer_busy(self, layer: str) -> float:
        return self._total("layer_busy", LAYERS.index(layer))

    def n_spans(self) -> int:
        return sum(len(st.t0) for st in self._threads)

    def dump(self, path):
        """Write every span to a compressed numpy archive; parents index the same arrays."""
        offsets = np.cumsum([0] + [len(st.t0) for st in self._threads])
        cat = lambda f, dt: np.concatenate([np.frombuffer(getattr(st, f), dtype=dt)
                                            for st in self._threads] or [np.zeros(0, dt)])
        parent = np.concatenate([np.where(np.frombuffer(st.parent, dtype=np.int32) >= 0,
                                          np.frombuffer(st.parent, dtype=np.int32) + off, -1)
                                 for st, off in zip(self._threads, offsets)] or [np.zeros(0, np.int32)])
        np.savez_compressed(path, start=cat("t0", float), end=cat("t1", float),
                            name=cat("nid", np.int32), parent=parent, job=cat("jid", np.int32),
                            names=np.array(self.names),
                            layers=np.array([LAYERS[i] for i in self.layer_of]))
