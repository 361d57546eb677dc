"""Per-module spans around coinlab's public functions, recorded from outside.

``install()`` replaces each traced function everywhere a coinlab module
binds it (``matrices`` and ``iteration`` import ``apply_stop`` by name,
``matrices`` imports ``run_blocks`` by name, and so on), so a call is seen
wherever its caller looks it up. Spans are kept in memory as totals per
name: calls, inclusive seconds and self seconds (inclusive minus the
spans directly inside). Worker processes inherit the wrappers but their
totals stay in the worker, so at ``--workers 2`` block work is not seen.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the function to wrap
TARGETS = {
    "cli.run": ("coinlab.cli", "run"),
    "mc.run_blocks": ("coinlab.mc", "run_blocks"),
    "mc.clopper_pearson": ("coinlab.mc", "clopper_pearson"),
    "walks.apply_stop": ("coinlab.walks", "apply_stop"),
    "matrices.build_G": ("coinlab.matrices", "build_G"),
    "matrices.build_H": ("coinlab.matrices", "build_H"),
    "matrices.spectral_norm": ("coinlab.matrices", "spectral_norm"),
    "iteration.run_iteration": ("coinlab.iteration", "run_iteration"),
    "exact.prob_sum_eq": ("coinlab.exact", "prob_sum_eq"),
    "exact.prob_sum_ge": ("coinlab.exact", "prob_sum_ge"),
    "exact.prob_max_ge_reflection": ("coinlab.exact", "prob_max_ge_reflection"),
    "exact.prob_max_ge_enumeration": ("coinlab.exact", "prob_max_ge_enumeration"),
    "bounds.derive": ("coinlab.bounds", "derive"),
    "bounds.lemma52_part1_bound": ("coinlab.bounds", "lemma52_part1_bound"),
    "bounds.check_claims": ("coinlab.bounds", "check_claims"),
}
# Modules whose time is summed over their outermost spans only, because
# their functions call each other.
GROUPED = ("exact", "bounds")


def noop_counter(rng, count, start):
    """A block counter that does no work, for timing a pool start."""
    return [count]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.group_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []

    def wrap(self, name: str, fn, after=None):
        group = name.split(".")[0]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [group, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if group in GROUPED and all(f[0] != group for f in stack):
                    self.group_time[group] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_run_blocks(self, signature):
        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            trials, block_size = bound.arguments["trials"], bound.arguments["block_size"]
            blocks = -(-trials // block_size)
            self.counts["mc.blocks"] += blocks
            self.counts["mc.flips"] += trials * flips_per_trial(bound.arguments["counter"])
            if int(bound.arguments["workers"]) > 1 and blocks > 1:
                self.counts["mc.pool_starts"] += 1
        return after

    def _after_spectral_norm(self, args, kwargs, result):
        self.counts["matrices.power_iters"] += result.iterations_used

    def install(self) -> None:
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            self.originals[name] = original
            after = None
            if name == "mc.run_blocks":
                after = self._after_run_blocks(inspect.signature(original))
            elif name == "matrices.spectral_norm":
                after = self._after_spectral_norm
            _rebind(original, self.wrap(name, original, after))
        walk_trace = sys.modules["coinlab.walks"].WalkTrace
        from_steps = walk_trace.__dict__["from_steps"].__func__
        walk_trace.from_steps = classmethod(self.wrap("walks.from_steps", from_steps))

    def pool_start_seconds(self, repeats: int = 3) -> float:
        """Median time of one run_blocks call that starts a two-worker pool
        for two blocks of a no-op counter."""
        run_blocks = self.originals["mc.run_blocks"]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_blocks(noop_counter, 2, 0, 1, 2)
            times.append(time.perf_counter() - start)
        return sorted(times)[len(times) // 2]

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "group": dict(self.group_time),
            "counts": dict(self.counts),
        }


def flips_per_trial(counter) -> int:
    """Coin flips one trial of a coinlab block counter draws, read from the
    parameters it was bound with."""
    kw = getattr(counter, "keywords", {})
    if "length" in kw:
        return int(kw["length"])
    if "n_full" in kw:
        return int(kw["n_full"])
    if "params_dict" in kw:
        p = kw["params_dict"]
        return int(p["m"]) * int(p["n"]) ** 2
    return 0


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "coinlab" or module_name.startswith("coinlab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
