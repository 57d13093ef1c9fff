"""In-memory spans around calls into quatspin's public functions.

Nothing inside the package is instrumented: `installed()` swaps each public
function listed in TRACED for a timing wrapper in every loaded quatspin
module that holds a reference to it, and puts the originals back on exit.
A span is [name, start, end, parent, op]: times come from
time.perf_counter (CLOCK_MONOTONIC on Linux, so spans written by a child
process line up with the parent's), parent is the index of the enclosing
span or -1, and op is the id of the workload operation it belongs to.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute): 'Class.method' wraps the method on the class.
TRACED = (
    ("quatspin.biquaternion", "mul"),
    ("quatspin.biquaternion", "conj_both"),
    ("quatspin.matrices", "to_matrix_linear"),
    ("quatspin.spin", "rotate_operator"),
    ("quatspin.special", "laguerre"),
    ("quatspin.special", "spherical_harmonic"),
    ("quatspin.spinor", "spinor_as_biquaternion"),
    ("quatspin.hydrogen", "assemble_wavefunction"),
    ("quatspin.hydrogen", "probability_in_region"),
    ("quatspin.hydrogen", "shoot_eigenvalue"),
    ("quatspin.hydrogen", "WaveFunction.density_grid"),
    ("quatspin.hydrogen", "WaveFunction.density"),
    ("quatspin.pauli_dirac", "verify_clifford"),
    ("quatspin.verify", "run_check"),
    ("quatspin.cli", "main"),
)


class Tracer:
    """Collects spans in a list; `op` tags each span opened while set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int = -1) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        # run_check is named after the check it runs, so per-check self
        # time can be read off the trace
        per_check = name == "verify.run_check"

        def traced(*args, **kwargs):
            idx = self._open(f"verify.check.{args[0]}" if per_check else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TRACED function for the duration of the block."""
    patches = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "quatspin" or name.startswith("quatspin.")]
    for modname, attr in TRACED:
        mod = importlib.import_module(modname)
        layer = modname.split(".")[1]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig))
            setattr(cls, meth, tracer.wrap(f"{layer}.{meth}", orig))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(f"{layer}.{attr}", orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    patches.append((m, key, orig))
                    setattr(m, key, wrapped)
    try:
        yield tracer
    finally:
        for obj, key, orig in reversed(patches):
            setattr(obj, key, orig)


def self_times(spans) -> tuple[dict, dict]:
    """Self time (duration minus the time covered by child spans), summed
    per layer (the part of the name before the first dot) and per name.

    Only spans under an operation span (a root named 'op.*') count, so
    calls the benchmark makes while checking outputs are left out.  A
    parent always has a smaller index than its children.
    """
    covered = [0.0]*len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            root[i] = root[parent]
    by_layer: dict[str, float] = {}
    by_name: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if not spans[root[i]][0].startswith("op."):
            continue
        own = (end - start) - covered[i]
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        by_name[name] = by_name.get(name, 0.0) + own
    return by_layer, by_name


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times in seconds from `python -X importtime` output.

    Returns {'quatspin': s, 'scipy': s}: the cumulative time of the quatspin
    package, and the sum over the outermost scipy entries (scipy and its
    subpackages, not counted twice when one imports another).  Lines come in
    post-order; indentation of the name gives the nesting depth.
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name_field = line[len("import time:"):].split("|")
        name = name_field[1:]
        depth = (len(name) - len(name.lstrip(" ")))//2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cum), children))

    found = {"quatspin": 0.0, "scipy": 0.0}

    def walk(node, in_scipy):
        _, name, cum, children = node
        if name == "quatspin":
            found["quatspin"] += cum*1e-6
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy:
            found["scipy"] += cum*1e-6
        for child in children:
            walk(child, in_scipy or is_scipy)

    for node in pending:
        walk(node, False)
    return found
