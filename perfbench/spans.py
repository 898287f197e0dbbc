"""Span tracing of chks from outside the package.

The tracer wraps every public function of the traced modules and records one
span per call: name, start, end and the span that was open when the call
began. Spans live in flat in-memory arrays and are written out once, when the
run ends. A function imported by name into another module (``from .state
import solve_forward``) is a second reference to the same object, so
installing the tracer replaces every reference to a wrapped function in every
loaded ``chks`` module, including function values held in module-level dicts
such as ``verify.SUITES``. A reference this misses shows as a span count
that differs from the counts the operation's results imply, which the
traced run checks.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "grid", "state", "linearized", "adjoint", "control_opt", "verify", "config", "fields_io",
)
SWEEPS = ("state.solve_forward", "linearized.solve_linearized", "adjoint.solve_adjoint")
# fields_io writes a 32-byte header before each nx*ny float64 payload.
FIELD_HEADER_BYTES = 32


def _sweep_note(result):
    traj = result[0] if isinstance(result, tuple) else result
    return traj.nt, traj.nt * traj.grid.nx * traj.grid.ny


def _write_note(args, kwargs):
    fields = args[2] if len(args) > 2 else kwargs["fields"]
    return sum(a.shape[0] * (FIELD_HEADER_BYTES + 8 * a[0].size) for a in fields.values())


def _optimize_note(result):
    return result.iterations, len(result.step_sizes)  # iterations, accepted steps


class Tracer:
    """Wraps chks functions and keeps their spans until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._replaced: list[tuple[dict, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        name_of = None
        if name == "grid.helmholtz_solve":
            # Scalar alpha is one direct DCT solve; field alpha runs CG.
            cg, direct = self._id("grid.helmholtz_cg"), self._id("grid.helmholtz_direct")

            def name_of(args, kwargs):
                alpha = args[2] if len(args) > 2 else kwargs["alpha"]
                return cg if np.ndim(alpha) > 0 else direct

        note_result = _sweep_note if name in SWEEPS else (
            _optimize_note if name == "control_opt.optimize" else None)
        note_args = _write_note if name == "fields_io.write_trajectory" else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, notes = self._stack, self.notes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid if name_of is None else name_of(args, kwargs))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if note_result is not None:
                notes[i] = note_result(result)
            elif note_args is not None:
                notes[i] = note_args(args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES and rebind every reference."""
        import chks  # noqa: F401  (loads every chks module)

        if not self._wrappers:
            for short in TRACED_MODULES:
                mod = sys.modules[f"chks.{short}"]
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        self._originals[id(obj)] = obj
                        self._wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for namespace in _chks_namespaces():
            for key, value in list(namespace.items()):
                if self._is_original(value):
                    self._replaced.append((namespace, key, value))
                    namespace[key] = self._wrappers[id(value)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._replaced):
            namespace[key] = original
        self._replaced.clear()

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value)) is value

    def mark(self) -> int:
        """Index of the next span, for cutting the span list into operations."""
        return len(self.start)

    def spans(self, lo: int, hi: int) -> "SpanTable":
        return SpanTable(self, lo, hi)

    def dump(self, path: Path, ops: list[tuple[str, int, int]]) -> None:
        """Write every span, the name table and the operation boundaries."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            ops=np.array(json.dumps(ops)),
        )


def _chks_namespaces():
    """Every loaded chks module's namespace and its dict-valued globals."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chks" or mod_name.startswith("chks.")):
            continue
        namespace = vars(mod)
        yield namespace
        for key, value in list(namespace.items()):
            if isinstance(value, dict) and not key.startswith("__"):
                yield value


class SpanTable:
    """The spans of one operation, with self times and per-name aggregates."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        self.lo = lo
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi].copy()
        self.parent = np.where(parent >= lo, parent - lo, -1)
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
                    - np.frombuffer(tracer.start, dtype=np.float64)[lo:hi])
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        # Calls nest on one thread, so children never overlap each other.
        self.self_time = self.dur - child
        self.notes = {i - lo: v for i, v in tracer.notes.items() if lo <= i < hi}

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def noted(self, name: str) -> list:
        return [self.notes[i] for i in np.flatnonzero(self.mask(name))]

    def children_of(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        m = self.mask(child) & (self.parent >= 0)
        return int(self.mask(parent)[self.parent[m]].sum())
