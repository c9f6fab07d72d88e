"""Span tracing of omvote's layers, installed from outside the package.

`Tracer.install` wraps the public functions of the layer modules and rebinds
every module attribute that refers to one of them, so calls made through a
`from .ccum import possible_outcomes` binding are seen as well as calls
through the defining module.  Each open span keeps a frame on a stack; the
frame below it is its parent.  When a span ends, its duration is added to its
function's totals and charged to the parent's child time, so

    self time = span duration - time covered by its child spans.

Spans are folded into per-function totals as they end instead of being kept
one by one: a run makes millions of them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

PACKAGE = "omvote"
LAYER_MODULES = ("core", "rules", "ccum", "manipulability", "characterization", "experiments", "cli")

# Public helpers that stay unwrapped.  Each costs about as much as a span
# and runs in the inner loops of a wrapped layer, whose self time includes
# it: the per-rule winner kernels count as rules.winner, validation and
# permutation inverses as their callers.  enumerate_rankings returns a lazy
# iterator, so a span around it would time only its creation.
UNWRAPPED = {
    "core": {"make_ranking", "make_tiebreak", "identity_tiebreak", "ranking_positions", "prefers",
             "make_profile", "enumerate_rankings", "enumerate_profiles"},
    "rules": {"make_score_vector", "score_vector", "kapproval_k", "scoring_scores", "scoring_winner",
              "scoring_cowinners", "pairwise_tally", "condorcet_winner", "copeland_winner", "stv_winner",
              "plurality_runoff_winner"},
}


class Tracer:
    """Per-function span totals for the omvote package: [calls, seconds, self seconds]."""

    def __init__(self):
        self.stats = {}
        self.originals = {}
        self.bindings = []
        self._stack = [[0.0]]  # the root frame absorbs the time of top-level spans
        self._patched = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]

        return functools.update_wrapper(span, fn)

    def install(self) -> None:
        """Wrap the layer functions and rebind every module attribute naming one."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            skip = UNWRAPPED.get(short, set())
            for attr, obj in vars(module).items():
                if attr.startswith("_") or attr in skip or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from another module; wrapped where it is defined
                name = f"{short}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
                    self.bindings.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def cache_info(self, name: str):
        """cache_info() of a wrapped lru_cache function, or None."""
        info = getattr(self.originals.get(name), "cache_info", None)
        return info() if info is not None else None
