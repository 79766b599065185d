"""In-memory span recorder that wraps magpair's layer functions.

A traced run replaces every public magpair function at each module that
binds it (``magpair.qes.count_positive_roots``, ``magpair.cli.eigenfunction``,
``magpair.oracle.eigenfunction``, ...) and scipy's ``eigh_tridiagonal``
where ``qes`` and ``oracle`` import it, with a wrapper that records one span
per call: name, start, end, parent span, op id, whether it raised, and one
numeric annotation (the (n, |s|) sector of a qes solve, the interior unknowns
of a finite-difference solve, the order of a convergence estimate).  The
originals are put back on exit, so untraced runs execute unwrapped code.

Spans are kept in flat ``array`` columns, not objects, so that a run with a
few hundred thousand spans stays small, and are written out as ``.npz`` when
the run ends.

Run as a script, this module is the traced entry point of a subprocess:

    python perfbench/spans.py OUT.npz verify

installs the wrappers, calls ``magpair.cli.main`` with the remaining
arguments, writes its stdout, saves the spans to OUT.npz and exits with
``main``'s code.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import types
from array import array

import numpy as np

#: magpair modules, in dependency order; the span name prefix of a function
#: is the module that defines it.
LAYERS = ("system", "polyops", "sl2rep", "qes", "catalog", "oracle",
          "landau", "integrals", "cli")

#: Foreign functions wrapped where a layer imports them, named by that layer.
FOREIGN = {"qes": ("eigh_tridiagonal",), "oracle": ("eigh_tridiagonal",)}

NO_PARENT = -1


def _sector_of_call(args, kwargs, out) -> float:
    """One number per (n, |s|) sector."""
    n = args[0] if args else kwargs["n"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    return float(int(n) * 1000 + abs(int(s)))


def _unknowns(args, kwargs, out) -> float:
    return float(len(out.r))


def _min_order(args, kwargs, out) -> float:
    return float(out.min_order)


#: Span name -> function of (args, kwargs, result) giving the annotation.
ANNOTATE = {
    "qes.secular_spectrum": _sector_of_call,
    "qes.eigenfunction": _sector_of_call,
    "oracle.fd_kappa_spectrum": _unknowns,
    "oracle.convergence_order": _min_order,
}

# bits of the `flags` column
RAISED = 1        # the call raised
OUTER_NAME = 2    # no enclosing span has the same name
OUTER_LAYER = 4   # no enclosing span belongs to the same layer


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")
        self.value = array("d")
        self.op_id = 0
        self._stack: list[int] = []
        self._name_depth: list[int] = []
        self._layer_depth: dict[str, int] = {}
        self._layer_of: list[str] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._name_depth.append(0)
            self._layer_of.append(name.split(".", 1)[0])
        return nid

    def open(self, nid: int) -> int:
        """Start a span; returns its index."""
        i = len(self.name)
        layer = self._layer_of[nid]
        flags = 0
        if self._name_depth[nid] == 0:
            flags |= OUTER_NAME
        if self._layer_depth.get(layer, 0) == 0:
            flags |= OUTER_LAYER
        self._name_depth[nid] += 1
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.op_id)
        self.flags.append(flags)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, raised: bool, value: float = 0.0) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        nid = self.name[i]
        self._name_depth[nid] -= 1
        self._layer_depth[self._layer_of[nid]] -= 1
        if raised:
            self.flags[i] |= RAISED
        self.value[i] = value

    def wrap(self, fn, name: str):
        """Return fn wrapped so that every call records a span."""
        nid = self._name_id(name)
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, True)
                raise
            self.close(i, False,
                       annotate(args, kwargs, out) if annotate else 0.0)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public layer function at every module that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"magpair.{m}") for m in LAYERS}
        for site, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) \
                        and obj.__module__.startswith("magpair."):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                elif attr in FOREIGN.get(site, ()):
                    name = f"{site}.{attr}"
                else:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, name))

    def uninstall(self) -> None:
        """Put every original function back."""
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (the layout `save` writes)."""
        return {
            "names": np.array(self.names, dtype=object),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }


def save(cols: dict[str, np.ndarray], path) -> None:
    cols = dict(cols, names=np.array([str(x) for x in cols["names"]]))
    np.savez(path, **cols)


def load(path) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def merge(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate span sets from separate processes.

    Part k keeps its spans but gets op id k and parent indices shifted past
    the earlier parts.  Name ids are remapped onto one shared name table.
    """
    ids: dict[str, int] = {}
    out = {k: [] for k in ("name", "start", "end", "parent", "op", "flags",
                           "value")}
    offset = 0
    for k, p in enumerate(parts):
        remap = np.array([ids.setdefault(str(nm), len(ids))
                          for nm in p["names"]], dtype=np.int32)
        out["name"].append(remap[p["name"]] if len(p["name"]) else p["name"])
        out["parent"].append(np.where(p["parent"] == NO_PARENT, NO_PARENT,
                                      p["parent"] + offset).astype(np.int32))
        out["op"].append(np.full(len(p["name"]), k, dtype=np.int32))
        for key in ("start", "end", "flags", "value"):
            out[key].append(p[key])
        offset += len(p["name"])
    cols = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    cols["names"] = np.array(list(ids), dtype=object)
    return cols


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children of one parent do not
    overlap and their durations add.
    """
    dur = cols["end"] - cols["start"]
    covered = np.zeros_like(dur)
    par = cols["parent"]
    has = par != NO_PARENT
    np.add.at(covered, par[has], dur[has])
    return dur - covered


def _main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed():
        from magpair import cli
        code = cli.main(cli_args)
    sys.stdout.flush()
    save(tracer.columns(), out_path)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
