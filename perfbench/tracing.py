"""Span tracing of hypodecay's public functions, from outside the package.

Tracer.install wraps every public function of the traced modules and rebinds
each name that points at one, in every hypodecay module: the module's own
attribute, the re-export in the package namespace, and the names other
modules imported (``hypodecay.cli`` imports most of them). A span records
name, start, end and parent; spans stay in memory until write() is called.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MODULES = ("spectral", "lyapunov", "condopt", "sharp2d", "rate_family",
           "propagator", "goldstein_taylor", "cli")


def rk4_steps(times, dt: float) -> int:
    """Fixed steps rk4_oracle takes to visit `times`, from the times and dt."""
    gaps = np.diff(np.concatenate([[0.0], np.atleast_1d(np.asarray(times, dtype=float))]))
    gaps = gaps[gaps > 1e-15]
    return int(np.ceil(gaps / dt - 1e-9).sum())


class Tracer:
    """Spans, per-name call counts and self times of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._condopt_depth = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        in_condopt = name.startswith("condopt.")
        signature = inspect.signature(fn) if name == "propagator.rk4_oracle" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["propagator.rk4_oracle.steps"] += rk4_steps(
                    bound.arguments["times"], bound.arguments["dt"])
            parent = self._stack[-1][0] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            self._condopt_depth += in_condopt
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._condopt_depth -= in_condopt
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((frame[0], parent, name, start, end))
        return traced

    def install(self) -> None:
        """Wrap the public functions and numpy.linalg.eigvalsh (counted under
        condopt spans only)."""
        import hypodecay

        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"hypodecay.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        targets = [hypodecay] + [m for k, m in sys.modules.items()
                                 if k.startswith("hypodecay.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

        eigvalsh = np.linalg.eigvalsh

        @functools.wraps(eigvalsh)
        def counted(*args, **kwargs):
            if self._condopt_depth:
                self.counts["condopt.eigvalsh.calls"] += 1
            return eigvalsh(*args, **kwargs)
        self._restore.append((np.linalg, "eigvalsh", eigvalsh))
        np.linalg.eigvalsh = counted

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent id, name, start, end (s)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def import_times(python: str, env: dict, cwd: Path, repeats: int = 3) -> dict[str, float]:
    """Cumulative import times (s) of hypodecay and scipy.optimize, the
    median over `repeats` runs of ``python -X importtime``; a module that
    ``import hypodecay`` does not load reads 0."""
    found: dict[str, list[float]] = {"hypodecay": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import hypodecay"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        seen = dict.fromkeys(found, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for k, v in seen.items():
            found[k].append(v)
    return {f"import.{k.replace('scipy.optimize', 'scipy_optimize')}_s":
            statistics.median(v) for k, v in found.items()}
