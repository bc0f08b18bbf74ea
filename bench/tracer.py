"""Outside-in tracing of the rwre package, from the benchmark's own files.

``Tracer.install`` replaces every public function of each rwre module, and
every public method of the classes those modules define, by a wrapper that
records a span.  Functions are replaced at every import site: each ``rwre``
module namespace that holds the original object gets the wrapper, so
``rwre.mc.r_tail`` is traced as well as ``rwre.exact.r_tail``, and so is a
call through a function-local ``from .env import kappa_root``.  Private
helpers are not wrapped; their time counts as self time of the public
function that called them.

A span is ``(id, parent, command, layer, name, start, end)`` with times from
``time.perf_counter``; a span's id is its index in ``spans``.  Spans stay
in memory until ``write_spans``; counts derived from arguments and return
values are accumulated at span end.
Nothing in ``src/`` is changed; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "env", "exact", "mc", "ladder", "estimate", "cli")


def _count_rng(name, args, result, counts):
    if name == "site_uniforms":
        counts["rng.sites"] += result.size
        counts["rng.site_calls"] += 1


def _count_env(name, args, result, counts):
    if name == "omega_at_sites":
        counts["env.sites"] += result.size


def _count_exact(name, args, result, counts):
    if type(result).__name__ == "SeriesValue":
        counts["exact.series_terms"] += result.terms_used
        counts["exact.nonconverged"] += not result.converged


def _count_mc(name, args, result, counts):
    if name == "speed_estimate":
        counts["mc.path_steps"] += args["horizon"] * args["reps"]
        counts["mc.samples"] += result.n
    elif name == "conditioned_sampler":
        counts["mc.path_steps"] += int(result.sum())
        counts["mc.samples"] += result.size
    elif name == "estimate_return_conditional":
        counts["mc.samples"] += result.n
        if args["mode"] == "averaged":
            counts["mc.envs"] += args["n_env"]
            counts["mc.env_failures"] += int(result.extras["env_failures"])
    elif name == "divergence_diagnostic":
        counts["mc.samples"] += result.n_env - result.env_failures
        counts["mc.envs"] += max(int(s) for s in args["schedule"])
        counts["mc.env_failures"] += result.env_failures


def _count_ladder(name, args, result, counts):
    if name in ("sup_tail", "phi_estimate"):
        counts["ladder.paths"] += result.n
    elif name == "overshoot_constant":
        counts["ladder.paths"] += result.n_per_level * len(result.entries)


def _count_estimate(name, args, result, counts):
    if name in ("Tally.of", "PairTally.of"):
        counts["estimate.samples"] += result.n


# Functions whose counts need their arguments bound by name.
_NEEDS_ARGS = {"speed_estimate", "estimate_return_conditional", "divergence_diagnostic"}

_COUNTERS = {
    "rng": _count_rng,
    "env": _count_env,
    "exact": _count_exact,
    "mc": _count_mc,
    "ladder": _count_ladder,
    "estimate": _count_estimate,
}


def _public_callables(module):
    """(owner, attribute, qualified name, function, kind) for one module."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, attr, attr, obj, "function"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                if isinstance(mobj, staticmethod):
                    yield obj, mattr, f"{attr}.{mattr}", mobj.__func__, "static"
                elif isinstance(mobj, classmethod):
                    yield obj, mattr, f"{attr}.{mattr}", mobj.__func__, "class"
                elif inspect.isfunction(mobj):
                    yield obj, mattr, f"{attr}.{mattr}", mobj, "method"


class Tracer:
    """Span recorder over the rwre package; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.count_errors: list[str] = []  # a counter that no longer fits the API
        self.command = -1
        self._stack: list[list] = []  # [span id, layer]
        self._patches: list[tuple] = []  # (owner, attribute, original value)

    def _wrap(self, layer: str, qualname: str, fn):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(layer)
        bind = inspect.signature(fn).bind if qualname in _NEEDS_ARGS else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled at span end
            stack.append([sid, layer])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, tracer.command, layer, qualname, start, end)
            if counter is not None:
                try:
                    bound = None
                    if bind is not None:
                        ba = bind(*args, **kwargs)
                        ba.apply_defaults()
                        bound = ba.arguments
                    counter(qualname, bound, result, tracer.counts)
                except (KeyError, AttributeError, TypeError) as exc:
                    # Reported as a benchmark problem, never as a failure of rwre.
                    tracer.count_errors.append(f"{layer}.{qualname}: {exc!r}")
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public API of every loaded rwre layer."""
        modules = {n: m for n, m in sys.modules.items() if n == "rwre" or n.startswith("rwre.")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"rwre.{layer}"]
            for owner, attr, qualname, fn, kind in _public_callables(module):
                w = self._wrap(layer, qualname, fn)
                wrappers[id(fn)] = w
                new = staticmethod(w) if kind == "static" else classmethod(w) if kind == "class" else w
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, new)
        # Re-point every other import site of a wrapped function.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                w = wrappers.get(id(obj))
                if w is not None and getattr(module, attr) is not w:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str, t0: float) -> None:
        """Write the spans as gzip CSV, times in seconds from ``t0``."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("span", "parent", "command", "layer", "name", "start_s", "end_s"))
            for sid, parent, cmd, layer, name, start, end in self.spans:
                w.writerow((sid, parent, cmd, layer, name, repr(start - t0), repr(end - t0)))


def summarize(spans: list[tuple]) -> dict:
    """Per-layer calls, busy time and self time from a list of spans.

    calls: spans entered from another layer (or from the benchmark);
    busy:  union of the layer's spans, i.e. durations of spans that have no
           ancestor in the same layer;
    self:  span durations minus their direct children's durations, so the
           self times of all layers sum to the root spans' total.
    Also returns the per-command root durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _cmd, _layer, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {f"{layer}.{k}": 0.0 if k != "calls" else 0 for layer in LAYERS for k in ("calls", "busy_s", "self_s")}
    roots: dict[int, float] = defaultdict(float)
    for sid, parent, cmd, layer, _name, start, end in spans:
        dur = end - start
        out[f"{layer}.self_s"] += dur - child_time[sid]
        p = spans[parent] if parent >= 0 else None
        if p is None or p[3] != layer:
            out[f"{layer}.calls"] += 1
        anc = p
        while anc is not None and anc[3] != layer:
            anc = spans[anc[1]] if anc[1] >= 0 else None
        if anc is None:
            out[f"{layer}.busy_s"] += dur
        if parent < 0:
            roots[cmd] += dur
    out["roots"] = dict(roots)
    return out
