"""In-memory spans around calls into obfgame's public functions.

The tracer replaces each target at every obfgame module attribute that holds
it, so a call is recorded whichever module looks it up (``cli`` calling
``stackelberg.classify_regime``, ``cascade_simulate`` calling the
``best_response`` and ``privacy_pressure`` names bound in ``mfg``).  Nothing
in the program changes; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, op): the parent is the span open when
the call began (-1 at the root) and op is the id of the benchmark operation
the call belongs to.  Spans stay in flat arrays until the worker ends, then
go to one ``.npz`` file.  Counts read from return values (regimes, cascade
rounds, fit iterations) are gathered at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

# (layer, home module, attribute).  A class is patched only in the modules
# that construct it, never in its home module: pickle looks instances' class
# up there, and the sweep's process pool pickles GameParams.
TARGETS = (
    ("model", "model", "GameParams"),
    ("model", "model", "accuracy_level"),
    ("model", "model", "privacy_pressure"),
    ("model", "model", "abstain_value"),
    ("model", "model", "learner_utility"),
    ("model", "model", "user_utility"),
    ("mfg", "mfg", "best_response"),
    ("mfg", "mfg", "gamma"),
    ("mfg", "mfg", "fixed_point_check"),
    ("mfg", "mfg", "cascade_simulate"),
    ("stackelberg", "stackelberg", "classify_regime"),
    ("stackelberg", "stackelberg", "thresholds"),
    ("stackelberg", "stackelberg", "tau_exact"),
    ("stackelberg", "stackelberg", "threshold_crossings"),
    ("stackelberg", "stackelberg", "sg_equilibrium"),
    ("stackelberg", "stackelberg", "pbne_solve"),
    ("erm", "erm", "scaling_experiment"),
    ("erm", "erm", "generate_synthetic"),
    ("erm", "erm", "perturb_dataset"),
    ("erm", "erm", "erm_fit"),
    ("erm", "erm", "reference_classifier"),
    ("erm", "erm", "excess_risk"),
    ("dp", "dp", "scaling_check"),
    ("dp", "dp", "gaussian_epsilon"),
    ("cli", "cli", "main"),
    ("cli", "cli", "run_sweep"),
    ("cli", "cli", "run_cascade"),
    ("cli", "cli", "run_validate"),
    ("cli", "cli", "_write_csv"),
    ("cli", "config", "parse_config"),
)

LAYERS = ("model", "mfg", "stackelberg", "erm", "dp", "cli")
MODULES = ("obfgame", "obfgame.model", "obfgame.mfg", "obfgame.stackelberg",
           "obfgame.erm", "obfgame.dp", "obfgame.config", "obfgame.cli")
CLASS_CALLERS = ("obfgame.config", "obfgame.cli")
REGIMES = ("StatusQuo", "FullObfuscation", "PrivacyPromise", "Boundary")
# threshold_crossings calls with parameters the worker has already seen
REPEATS = "stackelberg.threshold_crossings.repeats"
COUNTS = ("mfg.cascade.rounds", "mfg.cascade.flips", "mfg.cascade.converged",
          "erm.erm_fit.iterations", "erm.erm_fit.unconverged", REPEATS,
          *(f"stackelberg.regime.{r}" for r in REGIMES))


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Records a span per call of every target while installed."""

    def __init__(self):
        self.names = [span_name(m, a) for _, m, a in TARGETS]
        self._name_id = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        # [open span index, current op id, recording]
        self._state = [-1, 0, False]
        self.counts = Counter({name: 0 for name in COUNTS})
        self._seen_params: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def set_op(self, op: int) -> None:
        self._state[1] = op

    def install(self) -> None:
        hooks = {
            "stackelberg.classify_regime": self._count_regime,
            "stackelberg.pbne_solve": self._count_regime,
            "stackelberg.threshold_crossings": self._count_repeat,
            "mfg.cascade_simulate": self._count_cascade,
            "erm.erm_fit": self._count_fit,
        }
        modules = [importlib.import_module(name) for name in MODULES]
        for idx, (_, home, attr) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"obfgame.{home}"), attr)
            traced = self._wrap(idx, original, hooks.get(self.names[idx]))
            for module in modules:
                if isinstance(original, type) and module.__name__ not in CLASS_CALLERS:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)
        # forked pool workers inherit the patched modules; they call through
        os.register_at_fork(after_in_child=self._stop_recording)
        self._state[2] = True

    def uninstall(self) -> None:
        self._state[2] = False
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _stop_recording(self) -> None:
        self._state[2] = False

    def _wrap(self, idx, fn, hook):
        state = self._state
        ends = self._end
        push_name, push_parent = self._name_id.append, self._parent.append
        push_op, push_start, push_end = (self._op.append, self._start.append,
                                         self._end.append)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not state[2]:
                return fn(*args, **kwargs)
            parent = state[0]
            i = len(ends)
            push_name(idx)
            push_parent(parent)
            push_op(state[1])
            push_end(0.0)
            state[0] = i
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                state[0] = parent
            if hook is not None:
                hook(result, args)
            return result

        functools.update_wrapper(traced, fn, updated=())
        return traced

    def _count_regime(self, report, args) -> None:
        self.counts[f"stackelberg.regime.{report.regime.value}"] += 1

    def _count_repeat(self, result, args) -> None:
        params = args[0]
        if params in self._seen_params:
            self.counts[REPEATS] += 1
        else:
            self._seen_params.add(params)

    def _count_cascade(self, trace, args) -> None:
        self.counts["mfg.cascade.rounds"] += len(trace.rounds) - 1
        self.counts["mfg.cascade.flips"] += sum(
            int(np.count_nonzero(a != b))
            for a, b in zip(trace.rounds, trace.rounds[1:]))
        self.counts["mfg.cascade.converged"] += int(trace.converged)

    def _count_fit(self, fit, args) -> None:
        self.counts["erm.erm_fit.iterations"] += fit.iterations
        self.counts["erm.erm_fit.unconverged"] += int(not fit.converged)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self._name_id, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
            "op": np.array(self._op, dtype=np.int64),
            "start": np.array(self._start, dtype=float),
            "end": np.array(self._end, dtype=float),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Calls and self time per target, plus the summed duration of root
        spans.  Self time is a span's duration minus its children's; calls
        nest, so children never overlap one another."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        calls = np.bincount(spans["name_id"], minlength=len(self.names))
        self_s = np.bincount(spans["name_id"], weights=own,
                             minlength=len(self.names))
        return {
            "calls": {n: int(c) for n, c in zip(self.names, calls)},
            "self_s": {n: float(s) for n, s in zip(self.names, self_s)},
            "root_s": float(dur[~nested].sum()),
            "counts": dict(self.counts),
        }
