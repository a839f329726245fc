"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces public functions of ``fourierqml`` at the module
bindings their callers look them up through, so the package itself is
unchanged.  A binding that no longer exists aborts the traced run
(``TraceBindingError``) instead of silently measuring nothing; a call
that moves out from under its wrapper shows up as a drop in
``trace.coverage``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class TraceBindingError(RuntimeError):
    """A module binding the tracer patches does not exist."""


def _amps_count(counters, args, kwargs):
    amps = args[0] if args else kwargs["amps"]
    counters["statevector.amp_updates"] += amps.size
    counters["statevector.kernel_bytes_computed"] += 2 * amps.nbytes


def _haar_count(counters, args, kwargs):
    dim = args[0] if args else kwargs["dim"]
    size = args[2] if len(args) > 2 else kwargs.get("size")
    counters["statevector.haar_entries"] += (1 if size is None else size) * dim * dim


def _circuit_count(variants_of):
    def count(counters, args, kwargs):
        names = ("spec", "theta", "xs")
        bound = dict(zip(names, args), **{k: v for k, v in kwargs.items() if k in names})
        spec, theta, xs = bound["spec"], bound["theta"], bound["xs"]
        shape = getattr(xs, "shape", None)
        rows = shape[0] if shape is not None and len(shape) == 2 else 1
        variants = variants_of(len(theta))
        evals = variants * rows
        counters["qfflm.circuit_evals"] += evals
        mib = evals * (1 << spec.total_qubits) * 16 / 2**20
        counters["qfflm.batch_mb_max"] = max(counters["qfflm.batch_mb_max"], mib)
    return count


# (module, attribute, span name, counter).  Bindings that share a span name
# are the same function imported into different modules; each wraps the
# original, so a call is counted once whichever binding it goes through.
BINDINGS = (
    ("statevector", "apply_ry", "statevector.apply_ry", _amps_count),
    ("qfflm", "apply_ry", "statevector.apply_ry", _amps_count),
    ("statevector", "apply_rz", "statevector.apply_rz", _amps_count),
    ("qfflm", "apply_rz", "statevector.apply_rz", _amps_count),
    ("statevector", "apply_cnot", "statevector.apply_cnot", _amps_count),
    ("qfflm", "apply_cnot", "statevector.apply_cnot", _amps_count),
    ("statevector", "expectation_z", "statevector.expectation_z", None),
    ("qfflm", "expectation_z", "statevector.expectation_z", None),
    ("statevector", "haar_unitary", "statevector.haar_unitary", _haar_count),
    ("analysis", "haar_unitary", "statevector.haar_unitary", _haar_count),
    ("qfflm", "values_and_jacobian", "qfflm.values_and_jacobian",
     _circuit_count(lambda n_tp: 2 * n_tp + 1)),
    ("trainer", "values_and_jacobian", "qfflm.values_and_jacobian",
     _circuit_count(lambda n_tp: 2 * n_tp + 1)),
    ("qfflm", "evaluate_batch", "qfflm.evaluate_batch", _circuit_count(lambda n_tp: 1)),
    ("trainer", "evaluate_batch", "qfflm.evaluate_batch", _circuit_count(lambda n_tp: 1)),
    ("trainer", "_train_quantum", "trainer.train_q", None),
    ("trainer", "_train_classical", "trainer.train_c", None),
    ("trainer", "adam_step", "trainer.adam_step", None),
    ("cfflm", "feature_matrix", "cfflm.feature_matrix", None),
    ("trainer", "feature_matrix", "cfflm.feature_matrix", None),
    ("analysis", "plateau_stats", "analysis.plateau_stats", None),
    ("cli", "main", "cli.main", None),
)

SPANS = tuple(dict.fromkeys(name for _, _, name, _ in BINDINGS))
# spans that call other spans; the rest are leaves whose self time is their time
PARENT_SPANS = (
    "qfflm.values_and_jacobian",
    "trainer.train_q",
    "trainer.train_c",
    "analysis.plateau_stats",
    "cli.main",
)
# counter name -> unit; every counter is a per-operation sum except the maximum
COUNTERS = {
    "statevector.amp_updates": "count",
    "statevector.kernel_bytes_computed": "B",
    "statevector.haar_entries": "count",
    "qfflm.circuit_evals": "count",
    "qfflm.batch_mb_max": "MiB",
}
MAX_COUNTERS = ("qfflm.batch_mb_max",)


class Tracer:
    """Inclusive and self time per span name, plus argument-derived counts.

    ``install`` patches every binding in ``BINDINGS`` of the imported
    ``fourierqml`` modules; ``uninstall`` restores the originals.  Self
    time is a span's duration minus the durations of the spans it called;
    ``top_s`` sums the spans with no traced caller.
    """

    def __init__(self):
        self._modules = {m: importlib.import_module(f"fourierqml.{m}") for m, _, _, _ in BINDINGS}
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.top_s = 0.0
        for module_name, attr, _, _ in BINDINGS:
            if not callable(getattr(self._modules[module_name], attr, None)):
                raise TraceBindingError(f"fourierqml.{module_name}.{attr} does not exist")

    def _wrap(self, fn, name, count):
        stack = self._stack

        def traced(*args, **kwargs):
            if count is not None:
                count(self.counters, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.incl_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in BINDINGS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
