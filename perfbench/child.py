"""Child-process helpers: the traced CLI run and the BLAS-thread probe.

    python3 child.py trace SPANS_JSON <oscbath arguments...>
    python3 child.py probe <oscbath arguments...>

``trace`` imports the package through its entry point, wraps the public
functions that mark each layer boundary, calls ``oscbath.cli.cli_main`` with
the remaining arguments and, at exit, writes the recorded spans to
SPANS_JSON.  Spans stay in memory until then.  ``probe``
runs the CLI untraced and then prints, as a last line of JSON, the BLAS
thread count the process ended with and the Python, NumPy and SciPy
versions.
``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import sys
import threading
from time import perf_counter

# Layer boundary -> the public callables that mark it, as (module, attribute).
# "Class.method" attributes are patched on the class; plain functions are
# patched in every oscbath module that holds a reference to them, because
# `from .exact import reduced_state` copies the name into the importer.
BOUNDARIES = {
    "config.parse": [("config", "parse_path"), ("config", "validate")],
    "bath.discretize": [("bath", "omega_range"), ("bath", "discretize")],
    "bath.corr_ct": [("bath", "corr_ct")],
    "bath.fwhh": [("bath", "fwhh")],
    "exact.eigh": [("exact", "PropagatorCache.build")],
    "exact.initial_state": [("exact", "global_initial_state")],
    "exact.reduced": [("exact", "reduced_state"), ("exact", "reduced_driven_state")],
    "exact.propagator": [("exact", "propagator")],
    "flows.evolve": [("flows", "evolve_flow")],
    "gaussian.fidelity": [("gaussian", "fidelity_multi")],
    "fock.superop": [("fock", "build_superoperator")],
    "fock.integrate": [("fock", "integrate")],
    "fock.moments": [("fock", "moments")],
    "experiments.self": [("experiments", "run_experiment")],
    "cli.write": [("experiments", "ExperimentResult.to_csv"), ("pathlib", "Path.write_text")],
}
MODULES = ("cli", "config", "bath", "exact", "flows", "gaussian", "fock", "experiments")


def fidelity_name(a, *_args, **_kwargs) -> str:
    """fidelity_multi is split by mode count: n = 1, n = 2, and larger."""
    n = getattr(a, "n_modes", 0)
    return {1: "gaussian.fidelity_n1", 2: "gaussian.fidelity_n2"}.get(n, "gaussian.fidelity_nbig")


class Tracer:
    """Records (name, start, end, parent) spans.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with nothing open on that thread takes the main thread's innermost
    open span as its parent: that is the call that is waiting for the pool
    (``--threads`` runs sweep points on a thread pool).
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            opener = stack or self._main_stack
            parent = opener[-1] if opener else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index] = (label, start, perf_counter(), parent)
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every boundary callable that the installed package still has."""
        modules = [m for k, m in sys.modules.items() if k == "oscbath" or k.startswith("oscbath.")]
        for boundary, targets in BOUNDARIES.items():
            name = fidelity_name if boundary == "gaussian.fidelity" else boundary
            for module_name, attr in targets:
                full = module_name if module_name == "pathlib" else f"oscbath.{module_name}"
                module = sys.modules.get(full)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(method)
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
                    elif callable(raw):
                        setattr(cls, method, self.wrap(name, raw))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                traced = self.wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, traced)


def blas_threads() -> int:
    """Thread count of NumPy's bundled OpenBLAS, or -1 if it cannot be read."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return -1


def _import_package():
    # the entry point first, so anything it does before NumPy loads still happens
    importlib.import_module("oscbath.cli")
    for name in MODULES:
        importlib.import_module(f"oscbath.{name}")
    return sys.modules["oscbath.cli"]


def main(argv) -> int:
    if argv[:1] == ["probe"]:
        code = _import_package().cli_main(argv[1:])
        import numpy
        import scipy
        print(json.dumps({"blas_threads": blas_threads(), "python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}))
        return code
    if len(argv) < 3 or argv[0] != "trace":
        print(__doc__, file=sys.stderr)
        return 64
    spans_path, cli_args = argv[1], argv[2:]
    cli = _import_package()
    tracer = Tracer()
    tracer.install()
    try:
        return cli.cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
