"""In-memory span tracer that wraps certrom's public functions at run time.

Nothing under ``src/`` is edited: `install` replaces module and class
attributes with timing wrappers and `restore` puts the originals back. A span
is (name, start, end, parent, query); `parent` is the index of the span that
was open when it started and `query` the index of the enclosing
`AdaptiveModel.query` call (-1 outside queries).
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

import certrom.adaptive
import certrom.app
import certrom.fom
import certrom.hapod
import certrom.kernels
import certrom.mlp
import certrom.optimize
import certrom.problems
import certrom.rb

# (owner, attribute, span name). Functions that modules call by global name
# are patched where they are looked up (e.g. hapod.assemble_rb_rom).
SPANNED = (
    (certrom.problems, "build_reactive_flow", "problems.build"),
    (certrom.problems, "build_building", "problems.build"),
    (certrom.app, "make_adaptive_model", "app.make_model"),
    (certrom.app, "monte_carlo", "app.mc"),
    (certrom.optimize, "optimize_misfit", "optimize.run"),
    (certrom.optimize, "apply_tolerance_drop", "adaptive.tolerance_drop"),
    (certrom.hapod.RbGenerator, "precompute", "hapod.precompute"),
    (certrom.hapod.IncrementalHapod, "feed", "hapod.compress"),
    (certrom.hapod.IncrementalHapod, "finalize", "hapod.compress"),
    (certrom.hapod, "gram_schmidt", "hapod.gram_schmidt"),
    (certrom.hapod, "assemble_rb_rom", "rb.assemble"),
    (certrom.rb.EstimatorBuilder, "add_basis_columns", "rb.estimator_append"),
    (certrom.rb.RbRom, "eval_state", "rb.solve"),
    (certrom.rb.RbRom, "est_output_for", "rb.estimate"),
    (certrom.rb.RbRom, "est_state_for", "rb.estimate"),
    (certrom.kernels.VkogaGenerator, "precompute", "kernels.precompute"),
    (certrom.kernels.VkogaGenerator, "prolong", "kernels.prolong"),
    (certrom.kernels.VkogaRom, "eval_state", "kernels.predict"),
    (certrom.mlp, "mlp_train", "mlp.train"),
    (certrom.mlp.DnnGenerator, "precompute", "mlp.precompute"),
    (certrom.mlp.DnnRom, "eval_state", "mlp.predict"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.queries: list = []
        self.counts = {"adam_steps": 0, "useful_fits": 0, "growing_extends": 0}
        self._stack: list = []
        self._query = -1
        self._next_query = 0
        self._patches: list = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.queries.append(self._query)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return spanned

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))
        self._patch(certrom.adaptive.AdaptiveModel, "query", self._query_wrapper(certrom.adaptive.AdaptiveModel.query))
        self._patch(certrom.fom.FullOrderModel, "iter_state", self._fom_wrapper(certrom.fom.FullOrderModel.iter_state))
        self._patch(certrom.hapod.RbGenerator, "extend", self._extend_wrapper(certrom.hapod.RbGenerator.extend))
        self._patch(certrom.kernels, "vkoga_fit", self._fit_wrapper(certrom.kernels.vkoga_fit))
        self._patch(certrom.mlp, "adam_step", self._adam_wrapper(certrom.mlp.adam_step))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _query_wrapper(self, fn):
        @functools.wraps(fn)
        def query(model, mu):
            outer, self._query = self._query, self._next_query
            self._next_query += 1
            idx = self.open("adaptive.query")
            try:
                return fn(model, mu)
            finally:
                self.close(idx)
                self._query = outer

        return query

    def _fom_wrapper(self, fn):
        """Time each next() of the state generator, not the consumer's work:
        the first step is assembly plus factorization, the rest are steps."""

        @functools.wraps(fn)
        def iter_state(model, mu):
            inner = fn(model, mu)
            name = "fom.factorize"
            try:
                while True:
                    idx = self.open(name)
                    try:
                        row = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    name = "fom.step"
                    yield row
            finally:
                inner.close()

        return iter_state

    def _extend_wrapper(self, fn):
        spanned = self.wrap("hapod.extend", fn)

        @functools.wraps(fn)
        def extend(gen, mu):
            before = gen.basis.shape[1]
            spanned(gen, mu)
            self.counts["growing_extends"] += gen.basis.shape[1] > before

        return extend

    def _fit_wrapper(self, fn):
        spanned = self.wrap("kernels.fit", fn)

        @functools.wraps(fn)
        def vkoga_fit(xs, ys, config, warm=None):
            before = warm.num_centers if warm is not None else 0
            model = spanned(xs, ys, config, warm=warm)
            self.counts["useful_fits"] += model.num_centers > (before if model is warm else 0)
            return model

        return vkoga_fit

    def _adam_wrapper(self, fn):
        @functools.wraps(fn)
        def adam_step(*args, **kwargs):
            self.counts["adam_steps"] += 1
            return fn(*args, **kwargs)

        return adam_step

    # -- analysis ---------------------------------------------------------
    def arrays(self):
        """Names, durations, self times and parents of all spans."""
        dur = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        names = np.asarray(self.names, dtype=object)
        return names, dur, dur - child, parents

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,query\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                    f"{self.parents[i]},{self.queries[i]}\n"
                )


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Calibrated cost of one span (wrapped minus bare call of a no-op)."""

    def noop():
        return None

    best = math.inf
    for _ in range(3):
        spanned = Tracer().wrap("calibration", noop)
        tic = time.perf_counter()
        for _ in range(repeats):
            noop()
        bare = time.perf_counter() - tic
        tic = time.perf_counter()
        for _ in range(repeats):
            spanned()
        best = min(best, (time.perf_counter() - tic - bare) / repeats)
    return max(best, 0.0)
