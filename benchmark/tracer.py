"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ckkslt from outside the package: it
replaces the function in its defining module and in every ckkslt module
that bound the same object by name (``ckks.ntt``, ``rns.mod_mul_vec``,
...). Calls made through a module attribute at call time, including the
lazy in-function imports in ``datapath``, therefore reach the wrapper;
nothing under ``src/`` changes.

Spans are kept in memory as compact columns (id = row index, parent,
function, request id, start, end) and written out when the run ends.
Self time is a span's duration minus the time its child spans cover;
the run is single-threaded, so children never overlap and that cover is
the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    """Wraps ``targets`` ({module: [function, ...]}) of ``package``.

    Exceptions of the types in ``expected`` are documented outcomes (for
    example ``costmodel.Infeasible``) and are not counted as raised.
    """

    def __init__(self, package: str, targets: dict[str, list[str]],
                 expected: tuple[type, ...] = ()):
        self.package = package
        self.names = [f"{mod}.{fn}" for mod, fns in targets.items() for fn in fns]
        self.expected = expected
        self.request = NO_PARENT
        self.raised = {mod: 0 for mod in targets}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.parent = array("i")
        self.func = array("H")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")

    # -- patching -------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in sys.modules.items()
                  if name == self.package or name.startswith(self.package + ".")]
        for index, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            home = sys.modules[f"{self.package}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(index, mod_name, original)
            for module in loaded:
                if getattr(module, fn_name, None) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, index: int, mod_name: str, fn):
        stack = self._stack
        parent, func, req = self.parent, self.func, self.req
        start, end = self.start, self.end
        clock = time.perf_counter
        expected = self.expected
        raised = self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(func)
            parent.append(stack[-1] if stack else NO_PARENT)
            func.append(index)
            req.append(self.request)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, at the innermost traced call
                if not isinstance(exc, expected) and not getattr(exc, "_traced", False):
                    raised[mod_name] += 1
                    try:
                        exc._traced = True
                    except AttributeError:
                        pass
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        return traced

    # -- analysis -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "func": np.frombuffer(self.func, dtype=np.uint16).copy(),
            "request": np.frombuffer(self.req, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, requests) -> dict:
        """Calls, self seconds and top-level seconds of the spans whose
        request id is in ``requests``, per traced function."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] != NO_PARENT
        cover = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - cover
        keep = np.isin(cols["request"], np.asarray(list(requests), dtype=np.int32))
        width = len(self.names)
        calls = np.bincount(cols["func"][keep], minlength=width)
        selfs = np.bincount(cols["func"][keep], weights=self_s[keep], minlength=width)
        top = float(dur[keep & ~has_parent].sum())
        return {
            "calls": dict(zip(self.names, calls.tolist())),
            "self_s": dict(zip(self.names, selfs.tolist())),
            "top_level_s": top,
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
