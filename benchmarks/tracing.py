"""Spans around calls into entroscope's modules, recorded from outside.

`install()` wraps each function named in TARGETS in every `entroscope.*`
namespace that holds that function object (the CLI imports functions by
name, so wrapping only the defining module would miss its calls), plus
`SymmetricOperator.to_dense` on the class.  Spans (name, start, end,
parent) stay in memory; `Tracer.metrics()` turns them into per-layer
self times, call counts and the exact work counts below.
"""
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

TARGETS = {
    "spectral": ("diagonalize", "save_spectrum", "load_spectrum", "partition_shells"),
    "cli": ("obtain_spectrum", "render_table"),
    "experiments": (
        "subsystem_entropies",
        "run_shell_average",
        "run_volume_law",
        "fit_entropy_vs_lndos",
        "degeneracy_census",
    ),
    "states": ("averaged_rdm",),
    "entropy": ("von_neumann",),
    "basis": ("enumerate_sector",),
    "hamiltonian": ("build_hamiltonian",),
    "properties": ("run_property_suite",),
}
METHODS = {"hamiltonian": (("SymmetricOperator", "to_dense"),)}


def _file_bytes(tracer, args, result):
    return os.path.getsize(args["path"])


def _kets(tracer, args, result):
    spec, indices = args["spec"], args.get("indices")
    tracer.spectra[(spec.basis_tag, repr(spec.params))] = spec.dim
    return spec.dim if indices is None else len(indices)


# Exact work counts: span name -> (metric suffix, increment computed from the
# call's bound arguments and its result).
COUNTERS = {
    "spectral.diagonalize": ("dim3", lambda tracer, args, result: args["op"].dim ** 3),
    "spectral.save_spectrum": ("bytes", _file_bytes),
    "spectral.load_spectrum": ("bytes", _file_bytes),
    "cli.render_table": (
        "bytes", lambda tracer, args, result: len(result.content.encode("utf-8"))
    ),
    "experiments.subsystem_entropies": ("kets", _kets),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(int)
        self.spectra = {}  # distinct spectra whose kets were scanned -> dim
        self.names = []  # span names of the wrapped functions
        self.uncounted = set()  # wrapped functions whose counter no longer fits
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        suffix, counter = COUNTERS.get(name, (None, None))
        if counter is not None:
            signature = inspect.signature(fn)
            key = f"{name}.{suffix}"
            self.counts[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None and name not in self.uncounted:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[key] += counter(self, bound.arguments, result)
                except (TypeError, KeyError, AttributeError, OSError):
                    # The function changed shape: report its counts as absent.
                    self.uncounted.add(name)
            return result

        return traced

    def metrics(self) -> dict:
        """Self seconds and calls per span name, plus the exact counts."""
        child_s = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child_s[idx]
            calls[name] += 1
        out = {}
        for name in dict.fromkeys([*self.names, *self_s]):
            out[f"{name}.s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out.update(
            (key, value) for key, value in self.counts.items()
            if key.rsplit(".", 1)[0] not in self.uncounted
        )
        if self.spectra and "experiments.subsystem_entropies" not in self.uncounted:
            out["experiments.svn_kets_per_eigenket"] = (
                self.counts["experiments.subsystem_entropies.kets"]
                / sum(self.spectra.values())
            )
        return out


def install(package: str = "entroscope") -> Tracer:
    """Wrap the traced functions of an imported package; returns the tracer.

    A target missing from the package is skipped, so its metrics are absent.
    """
    tracer = Tracer()
    namespaces = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    for short, funcs in TARGETS.items():
        home = sys.modules.get(f"{package}.{short}")
        for func in funcs:
            original = getattr(home, func, None)
            if original is None:
                continue
            name = f"{short}.{func}"
            traced = tracer.wrap(name, original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
            tracer.names.append(name)
    for short, methods in METHODS.items():
        home = sys.modules.get(f"{package}.{short}")
        for cls_name, meth in methods:
            cls = getattr(home, cls_name, None)
            original = getattr(cls, meth, None)
            if original is None:
                continue
            name = f"{short}.{meth}"
            setattr(cls, meth, tracer.wrap(name, original))
            tracer.names.append(name)
    return tracer
