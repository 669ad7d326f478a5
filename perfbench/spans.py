"""Tracing wrappers around fracalc's public functions, and the per-layer
metrics computed from the spans they record.

Tracer.install() wraps every public function defined in a layer module and
rebinds the wrapper in every fracalc namespace that holds the original
(``from .special import e1_array`` copies the name into other modules) and
in module-level dicts such as verify.SUITES.  Each call records one span:
name, start, end, parent span, the timed operation it belongs to (-1 for
set-up and checks), and a work count read from its arguments or result.
Spans stay in memory and are written once, when the worker ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("special", "quadrature", "operators", "derivatives", "relaxation",
          "verify", "funcspec", "cli")

# flag bits
UNCONVERGED = 1
TOUCHED_SPECIAL = 2   # the span or one of its descendants is a special.* span
IN_PICARD = 4         # a relaxation.solve_picard span is an ancestor


def _size(x) -> float:
    return float(np.size(x))


def _quad_work(result):
    return float(result.panels_used), not result.converged


def _picard_work(result):
    diag = result[1]
    return float(diag.iterations), not diag.converged


# work counts read from arguments (before the call) or results (after it)
ARG_WORK = {"special.e1_array": _size, "special.volterra_s_array": _size,
            "special.log_gamma_array": _size}
RESULT_WORK = {"quadrature.integrate": _quad_work,
               "quadrature.integrate_semi_infinite": _quad_work,
               "relaxation.solve_picard": _picard_work}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _operator_kind(name, args, kwargs):
    """Input kind of an apply_j/apply_s(_at) call: grid (output lattice
    divides the input lattice), grid_at (any other output points of a grid
    input) or analytic."""
    from fracalc.funcspec import Grid
    f = _arg(args, kwargs, 0, "f")
    if not isinstance(f, Grid):
        return "analytic", None
    if name.endswith("_at"):
        return "grid_at", None
    p, n_out = _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "n_out")
    if f.fn.interval == p.interval and f.fn.n % n_out == 0:
        return "grid", (f.fn.spacing / p.alpha, f.fn.n)
    return "grid_at", None


KINDED = ("operators.apply_j", "operators.apply_s", "operators.apply_j_at",
          "operators.apply_s_at")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.flag = array("b")
        self.lattice: dict[int, tuple[float, int]] = {}
        self.wrapped: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._picard_depth = 0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"fracalc.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                self.wrapped.append(f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "fracalc" and not modname.startswith("fracalc."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]

    def _wrap(self, name: str, fn):
        arg_work = ARG_WORK.get(name)
        result_work = RESULT_WORK.get(name)
        kinded = name in KINDED
        picard = name == "relaxation.solve_picard"
        special = name.startswith("special.")
        plain_id = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            name_id, lattice = plain_id, None
            if kinded:
                kind, lattice = _operator_kind(name, args, kwargs)
                name_id = self._id(f"{name}.{kind}")
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.opid.append(self.op)
            self.work.append(arg_work(args[0]) if arg_work else 0.0)
            self.flag.append(IN_PICARD if self._picard_depth else 0)
            self.end.append(0.0)
            if lattice is not None:
                self.lattice[sid] = lattice
            stack.append(sid)
            if picard:
                self._picard_depth += 1
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
                if picard:
                    self._picard_depth -= 1
                flags = self.flag[sid] | (TOUCHED_SPECIAL if special else 0)
                if stack and flags & TOUCHED_SPECIAL:
                    self.flag[stack[-1]] |= TOUCHED_SPECIAL
                self.flag[sid] = flags
            if result_work:
                work, unconverged = result_work(result)
                self.work[sid] = work
                if unconverged:
                    self.flag[sid] |= UNCONVERGED
            return result

        return wrapper

    def write(self, path: str) -> None:
        lat = sorted(self.lattice.items())
        np.savez_compressed(
            path,
            meta=np.array(json.dumps({"names": self.names, "wrapped": self.wrapped})),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.opid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
            flag=np.frombuffer(self.flag, dtype=np.int8),
            lattice_span=np.array([s for s, _ in lat], dtype=np.int64),
            lattice_key=np.array([k for _, k in lat], dtype=np.float64).reshape(-1, 2),
        )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# apply_j_at / apply_s_at are the point-wise halves of apply_j / apply_s
FAMILY = {"operators.apply_j_at": "operators.apply_j",
          "operators.apply_s_at": "operators.apply_s"}

UNITS = {"calls": "count", "self_s": "s", "points": "count", "panels": "count",
         "unconverged": "count", "iterations": "count",
         "moment_hit_ratio": "ratio", "lattices": "count"}
WORK_STATS = ("points", "panels", "iterations")


class Totals:
    """Per-layer sums over the timed operations of one or more span files."""

    def __init__(self):
        self.rows: dict[str, dict[str, float]] = {}
        self.wrapped: set[str] = set()
        self.grid_s_calls = 0
        self.grid_s_hits = 0
        self.lattices: set[tuple[float, int]] = set()
        self.spans = 0

    def add_file(self, path: str) -> None:
        z = np.load(path)
        meta = json.loads(str(z["meta"]))
        self.wrapped.update(meta["wrapped"])
        names = meta["names"]
        parent, op, flag = z["parent"], z["op"], z["flag"]
        dur = z["end"] - z["start"]
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        timed = op >= 0
        self.spans += int(timed.sum())
        name = z["name"]
        if not names:
            return
        # a call counts once per family: not when its parent is of the same
        # family (apply_j -> apply_j_at on a non-aligned grid, or recursion)
        families = [self._family(n) for n in names]
        fam_idx = {f: i for i, f in enumerate(sorted(set(families)))}
        fam_code = np.array([fam_idx[f] for f in families])[name]
        parent_fam = np.where(has_parent, fam_code[np.maximum(parent, 0)], -1)
        outer = parent_fam != fam_code
        for i, nm in enumerate(names):
            key = self._key(nm)
            sel = timed & (name == i)
            if not sel.any():
                continue
            row = self.rows.setdefault(key, {"calls": 0, "self_s": 0.0, "work": 0.0,
                                             "unconverged": 0})
            row["calls"] += int((sel & outer).sum())
            row["self_s"] += float(selft[sel].sum())
            row["work"] += float(z["work"][sel].sum())
            row["unconverged"] += int(((flag[sel] & UNCONVERGED) != 0).sum())
            if key == "operators.apply_s.grid":
                direct = sel & ((flag & IN_PICARD) == 0)
                self.grid_s_calls += int(direct.sum())
                self.grid_s_hits += int((direct & ((flag & TOUCHED_SPECIAL) == 0)).sum())
        lat_span, lat_key = z["lattice_span"], z["lattice_key"]
        for s, (dz, n) in zip(lat_span, lat_key):
            if op[s] >= 0 and not flag[s] & IN_PICARD:
                self.lattices.add((float(dz), int(n)))

    @staticmethod
    def _family(name: str) -> str:
        parts = name.split(".")
        base = ".".join(parts[:2])
        return FAMILY.get(base, base)

    @classmethod
    def _key(cls, name: str) -> str:
        parts = name.split(".")
        return ".".join([cls._family(name)] + parts[2:])

    def metric(self, metric: str) -> float | None:
        """Value of a per-layer metric, or None when its function was not
        found at this commit (absent, never 0)."""
        key, _, stat = metric.rpartition(".")
        fn = ".".join(key.split(".")[:2])
        if fn not in self.wrapped:
            return None
        if stat == "moment_hit_ratio":
            return self.grid_s_hits / self.grid_s_calls if self.grid_s_calls else 0.0
        if stat == "lattices":
            return float(len(self.lattices))
        row = self.rows.get(key)
        if row is None:
            return 0.0
        if stat in WORK_STATS:
            return row["work"]
        return float(row[stat])
