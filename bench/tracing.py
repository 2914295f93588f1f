"""Layer spans for the traced benchmark run.

The tracer replaces module-level names with timing wrappers at the place each
caller looks them up (``subnyq.experiments.estimate``,
``subnyq.sngem.unfold``, ``scipy.linalg.svd`` as reached through
``subnyq.sngem``'s ``scipy`` global, ...), so the program itself is not
edited.  Spans carry a parent id, stay in memory and are written out when the
run ends.  Pool workers write their spans to one file per chunk, which the
parent reads back after the sweep.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np

import subnyq.experiments
import subnyq.sngem

# the tracer installed in this process, inherited by forked pool workers
_ACTIVE = None


def _array_bytes(obj, skip=()) -> int:
    skip_ids = {id(a) for a in skip}
    return sum(
        v.nbytes
        for v in vars(obj).values()
        if isinstance(v, np.ndarray) and id(v) not in skip_ids
    )


def _observe_estimate(tracer, args, result):
    tracer.counts["sngem.components"] += len(result.tones) + len(result.failures)
    tracer.counts["sngem.rejected"] += len(result.failures)


def _observe_build(tracer, args, result):
    tracer.counts["omp.builds"] += 1
    tracer.values["omp.base_bytes"].append(_array_bytes(result))


def _observe_stacked(tracer, args, result):
    base = result.base
    tracer.values["omp.stacked_bytes"].append(
        _array_bytes(result, skip=(base.cosines, base.sines))
    )


def _observe_recover(tracer, args, result):
    tracer.counts["omp.recoveries"] += 1
    tracer.counts["omp.iterations"] += result.iterations


def _observe_search(tracer, args, result):
    tracer.counts["sngem.search_nfev"] += int(result.nfev)


class _Proxy(types.SimpleNamespace):
    """Stand-in for a module: overridden names first, then the module."""

    def __init__(self, module, **overrides):
        super().__init__(**overrides)
        object.__setattr__(self, "_module", module)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every wrapper, leaving puts
    the original module attributes back.
    """

    def __init__(self, spans_dir):
        self.spans_dir = str(spans_dir)  # where pool workers leave their spans
        self.pool_workers: list = []  # max_workers of each pool started
        self._saved: list = []  # (owner, attribute, original)
        self._chunk_seq = 0
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list = []  # [id, parent, name, start, end, pid]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.values = {"omp.base_bytes": [], "omp.stacked_bytes": []}

    # -- spans -------------------------------------------------------------
    def open(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, name,
                time.perf_counter(), None, self.pid]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()

    def timed(self, fn, name, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def _replace(self, owner, attribute, value):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def original(self, owner, attribute):
        for o, a, value in self._saved:
            if o is owner and a == attribute:
                return value
        return getattr(owner, attribute)

    def install(self):
        global _ACTIVE
        if self._saved:
            raise RuntimeError("tracer is already installed")
        exp = subnyq.experiments
        sng = subnyq.sngem
        for owner, attribute, name, observe in (
            (exp, "run_trial", "experiments.run_trial", None),
            (exp, "generate_scenario", "experiments.generate_scenario", None),
            (exp, "match_tones", "experiments.match_tones", None),
            (exp, "synthesize", "signal_core.synthesize", None),
            (exp, "add_noise", "signal_core.add_noise", None),
            (exp, "estimate", "sngem.estimate", _observe_estimate),
            (exp, "build_dictionary", "omp.build_dictionary", _observe_build),
            (exp, "prepare_stacked", "omp.prepare_stacked", _observe_stacked),
            (exp, "omp_recover", "omp.recover", _observe_recover),
            (sng, "estimate_aliased_spectrum", "sngem.aliased_spectrum", None),
            (sng, "estimate_nonuniform", "sngem.nonuniform", None),
            (sng, "unfold", "sngem.unfold", None),
        ):
            self._replace(owner, attribute, self.timed(getattr(owner, attribute), name, observe))
        scipy = sng.scipy
        self._replace(sng, "scipy", _Proxy(
            scipy,
            linalg=_Proxy(
                scipy.linalg,
                svd=self.timed(scipy.linalg.svd, "sngem.svd"),
                eigvals=self.timed(scipy.linalg.eigvals, "sngem.eigvals"),
            ),
            optimize=_Proxy(
                scipy.optimize,
                minimize_scalar=self.timed(
                    scipy.optimize.minimize_scalar, "sngem.search", _observe_search
                ),
            ),
        ))
        self._replace(exp, "ProcessPoolExecutor", self._pool_factory(exp.ProcessPoolExecutor))
        self._replace(exp, "_point_chunk", WorkerChunk(self.spans_dir))
        _ACTIVE = self

    def remove(self):
        global _ACTIVE
        while self._saved:
            owner, attribute, value = self._saved.pop()
            setattr(owner, attribute, value)
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _pool_factory(self, pool_cls):
        tracer = self

        class TracedPool(pool_cls):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_workers.append(max_workers or os.cpu_count() or 1)

            def __enter__(self):
                self._bench_span = tracer.open("experiments.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)

        return TracedPool

    # -- pool workers ------------------------------------------------------
    def dump_worker_spans(self):
        """Write this worker's spans and counts to a fresh file and reset them."""
        self._chunk_seq += 1
        path = Path(self.spans_dir) / f"{self.pid}-{self._chunk_seq}.json"
        doc = {"spans": self.spans, "counts": dict(self.counts), "values": self.values}
        path.write_text(json.dumps(doc))
        self._reset()

    def merge_worker_spans(self):
        """Fold the span files written by pool workers into this tracer."""
        for path in sorted(Path(self.spans_dir).glob("*.json")):
            doc = json.loads(path.read_text())
            offset = len(self.spans)
            for span in doc["spans"]:
                span[0] += offset
                if span[1] is not None:
                    span[1] += offset
                self.spans.append(span)
            self.counts.update(doc["counts"])
            for key, vals in doc["values"].items():
                self.values[key].extend(vals)
            path.unlink()


class WorkerChunk:
    """Picklable stand-in for ``experiments._point_chunk``.

    A pool worker runs the real chunk under a tracer of its own and leaves
    its spans in the spans directory for the parent to merge.
    """

    def __init__(self, spans_dir):
        self.spans_dir = spans_dir

    def __call__(self, args):
        global _ACTIVE
        tracer = _ACTIVE
        if tracer is None:  # workers started without fork import afresh
            tracer = Tracer(self.spans_dir)
            tracer.install()
        elif tracer.pid != os.getpid():  # forked: drop the parent's spans
            tracer._reset()
        chunk = tracer.original(subnyq.experiments, "_point_chunk")
        span = tracer.open("experiments.point_chunk")
        try:
            return chunk(args)
        finally:
            tracer.close(span)
            tracer.dump_worker_spans()


# -- per-layer metrics ------------------------------------------------------

def _durations(spans, name):
    return [s[4] - s[3] for s in spans if s[2] == name]


def _median_ms(spans, name):
    d = _durations(spans, name)
    return 1e3 * statistics.median(d) if d else 0.0


def _total(spans, name):
    return sum(_durations(spans, name))


def self_times(spans):
    """Span duration minus the time its child spans cover, per span id."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(tracer: Tracer, root_name: str) -> dict:
    """Per-layer metrics (name -> value) from a finished traced sweep."""
    spans = tracer.spans
    counts = tracer.counts
    trial_time = _total(spans, "experiments.run_trial")
    root_time = _total(spans, root_name)
    pooled = bool(tracer.pool_workers)
    workers = max(tracer.pool_workers) if pooled else 1
    nonuniform = _total(spans, "sngem.nonuniform")
    builds = counts["omp.builds"]
    recoveries = counts["omp.recoveries"]
    dict_bytes = [
        b + s for b, s in zip(tracer.values["omp.base_bytes"], tracer.values["omp.stacked_bytes"])
    ]
    components = counts["sngem.components"]
    pool_time = _total(spans, "experiments.pool")
    worker_trials = sum(
        s[4] - s[3] for s in spans if s[2] == "experiments.run_trial" and s[5] != tracer.pid
    )
    return {
        "sngem.estimate_ms": _median_ms(spans, "sngem.estimate"),
        "sngem.aliased_spectrum_ms": _median_ms(spans, "sngem.aliased_spectrum"),
        "sngem.svd_ms": _median_ms(spans, "sngem.svd"),
        "sngem.svd_calls": len(_durations(spans, "sngem.svd")),
        "sngem.eigvals_ms": _median_ms(spans, "sngem.eigvals"),
        "sngem.unfold_ms": _median_ms(spans, "sngem.unfold"),
        "sngem.fold_fail_frac": counts["sngem.rejected"] / components if components else 0.0,
        "sngem.nonuniform_ms": _median_ms(spans, "sngem.nonuniform"),
        "sngem.nonuniform_self_frac": (
            1.0 - _total(spans, "sngem.search") / nonuniform if nonuniform else 0.0
        ),
        "sngem.search_ms": _median_ms(spans, "sngem.search"),
        "sngem.search_calls": len(_durations(spans, "sngem.search")),
        "sngem.search_nfev": counts["sngem.search_nfev"],
        "omp.build_dictionary_ms": _median_ms(spans, "omp.build_dictionary"),
        "omp.prepare_stacked_ms": _median_ms(spans, "omp.prepare_stacked"),
        "omp.dictionary_bytes": max(dict_bytes, default=0),
        "omp.cache_hit_frac": 1.0 - builds / recoveries if recoveries else 0.0,
        "omp.recover_ms": _median_ms(spans, "omp.recover"),
        "omp.iterations": counts["omp.iterations"],
        "signal_core.synthesize_ms": _median_ms(spans, "signal_core.synthesize"),
        "signal_core.add_noise_ms": _median_ms(spans, "signal_core.add_noise"),
        "experiments.generate_scenario_ms": _median_ms(spans, "experiments.generate_scenario"),
        "experiments.match_tones_ms": _median_ms(spans, "experiments.match_tones"),
        "experiments.run_trial_ms": _median_ms(spans, "experiments.run_trial"),
        "experiments.harness_frac": (
            1.0 - trial_time / (workers * root_time) if root_time else 0.0
        ),
        "experiments.pool_starts": len(tracer.pool_workers),
        "experiments.parallel_efficiency": (
            worker_trials / (workers * pool_time) if pooled and pool_time else 0.0
        ),
    }


def coverage(tracer: Tracer, root_name: str) -> dict:
    """Where the traced wall time went.

    ``unattributed_frac`` is the share of the root span (the sweep, in the
    benchmark's own process) that no layer span covers.  ``trial_shares``
    gives each layer's inclusive time as a share of all run_trial time.
    """
    spans = tracer.spans
    own = self_times(spans)
    roots = [s for s in spans if s[2] == root_name]
    root_time = sum(s[4] - s[3] for s in roots)
    uncovered = sum(own[s[0]] for s in roots)
    trial_time = _total(spans, "experiments.run_trial")
    names = sorted({s[2] for s in spans} - {root_name, "experiments.run_trial",
                                              "experiments.pool", "experiments.point_chunk"})
    return {
        "unattributed_frac": uncovered / root_time if root_time else 0.0,
        "trial_shares": {
            n: _total(spans, n) / trial_time for n in names
        } if trial_time else {},
        "trial_self_frac": (
            sum(own[s[0]] for s in spans if s[2] == "experiments.run_trial") / trial_time
            if trial_time else 0.0
        ),
    }
