"""Span tracing of rvb-ladder from outside the package.

The tracer replaces public functions of the package's modules with wrappers
while a traced pass runs. Each name is patched in every module that holds
the original object, because that is where its caller looks it up: for
example `state.enumerate_coverings` as well as `lattice.enumerate_coverings`.

A span is (name, start, end, parent, pass id). Spans are kept in memory and
written out once, when the run ends. A span's self time is its duration
minus the durations of its child spans; calls are nested on one thread, so
children never overlap.
"""

import collections
import functools
import gzip
import os
import time
from contextlib import contextmanager

# Functions timed as spans. A function is listed only where its time should
# be split out of its caller's self time.
SPANNED = (
    ("cli", "main"),
    ("sweep", "run_sweep"), ("sweep", "fit_figures"), ("sweep", "emit_csv"),
    ("lattice", "build_ladder"), ("lattice", "enumerate_coverings"),
    ("lattice", "count_coverings"),
    ("state", "rvb_state"), ("state", "total_spin_squared"), ("state", "dump_state"),
    ("density", "edge_werner_parameters"),
    ("measures", "monogamy_check"), ("measures", "monogamy_surface_sample"),
    ("measures", "cloning_theta_sets"), ("measures", "ggm"),
    ("numerics", "hermitian_eigenvalues"), ("numerics", "dominant_singular_value"),
)

# Functions only counted, without a span: a span would take their time out
# of the step that calls them. `_schmidt_sq_max(psi, n, mask)` is private,
# but it is the one place that sees each bipartition mask GGM scans.
COUNTED = (
    ("density", "partial_trace"), ("density", "werner_parameter"),
    ("measures", "_schmidt_sq_max"),
)

# Per-layer time metrics: metric name -> span whose self time it sums.
SELF_TIME_METRICS = {
    "measures.ggm_s": "measures.ggm",
    "numerics.eigvalsh_s": "numerics.hermitian_eigenvalues",
    "numerics.power_iter_s": "numerics.dominant_singular_value",
    "sweep.emit_s": "sweep.emit_csv",
    "measures.surface_s": "measures.monogamy_surface_sample",
    "measures.cloning_s": "measures.cloning_theta_sets",
    "measures.monogamy_s": "measures.monogamy_check",
    "state.rvb_state_s": "state.rvb_state",
    "state.spin_sq_s": "state.total_spin_squared",
    "density.werner_s": "density.edge_werner_parameters",
    "lattice.enumerate_s": "lattice.enumerate_coverings",
    "lattice.count_s": "lattice.count_coverings",
    "state.dump_s": "state.dump_state",
}

COUNT_METRICS = (
    "measures.ggm.bipartitions", "measures.ggm.gram_gflop_computed",
    "sweep.emit_bytes", "state.amplitudes", "density.partial_traces",
    "density.werner_not_ok", "lattice.coverings", "state.dump_bytes",
    "sweep.failures",
)

PASS_SPAN = "pass"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _count_return(name, counts, args, kwargs, result):
    """Counts taken from a spanned call's arguments and result."""
    if name == "lattice.enumerate_coverings":
        counts["lattice.coverings"] += len(result)
    elif name == "state.rvb_state":
        counts["state.amplitudes"] += result.size
    elif name == "state.dump_state":
        counts["state.dump_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "sweep.emit_csv":
        counts["sweep.emit_bytes"] += _tree_bytes(_arg(args, kwargs, 1, "out_dir"))
    elif name == "sweep.run_sweep":
        counts["sweep.failures"] += len(result.failures)


def gram_gflop(n, mask):
    """Computed GFLOP of one bipartition: Gram product plus its eigensolve.

    With k sites on the smaller side the Gram matrix is 2^k x 2^k, built from
    a 2^k x 2^(n-k) matrix: 2^(n+k+1) flops, plus 4/3 8^k for the eigensolve.
    """
    ones = bin(mask).count("1")
    k = min(ones, n - ones)
    return (2 ** (n + k + 1) + 4.0 / 3.0 * 8 ** k) / 1e9


class Tracer:
    """Records spans and counts of the passes run inside `traced_pass`."""

    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.spans = []  # [name, start, end, parent index or None, pass id]
        self.counts = collections.defaultdict(collections.Counter)  # pass id -> counts
        self.masks = collections.defaultdict(set)  # pass id -> {(ggm span, n, mask)}
        self.missing = set()
        self._stack = []
        self._pass_id = None

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._pass_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            _count_return(name, self.counts[self._pass_id], args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self.counts[self._pass_id]
            if name == "density.partial_trace":
                counts["density.partial_traces"] += 1
            elif name == "density.werner_parameter":
                counts["density.werner_not_ok"] += not result.werner_ok
            elif name == "measures._schmidt_sq_max":
                n, mask = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "mask")
                self.masks[self._pass_id].add((self._stack[-1], n, mask))
            return result
        return wrapper

    def _patch(self):
        """Patch every wrapped name; return the (module, name, original) list.

        A name the package no longer has is skipped and listed in `missing`,
        so that its metrics read 0 instead of failing the run.
        """
        saved = []
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, fn_name in table:
                original = getattr(self.modules[mod_name], fn_name, None)
                if original is None:
                    self.missing.add(f"{mod_name}.{fn_name}")
                    continue
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for module in self.modules.values():
                    if getattr(module, fn_name, None) is original:
                        saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        return saved

    @contextmanager
    def traced_pass(self, pass_id):
        """Patch the package, record one root span for the pass, restore."""
        saved = self._patch()
        self._pass_id = pass_id
        span = [PASS_SPAN, 0.0, 0.0, None, pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._pass_id = None
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def pass_metrics(self):
        """Per-layer metrics of each traced pass: {pass id: {metric: value}}."""
        child_time = collections.defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = collections.defaultdict(lambda: collections.defaultdict(float))
        ggm_total = collections.defaultdict(float)
        pass_time = {}
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            self_time[pass_id][name] += end - start - child_time[i]
            if name == "measures.ggm":
                ggm_total[pass_id] += end - start
            elif name == PASS_SPAN:
                pass_time[pass_id] = end - start

        out = {}
        for pass_id, duration in pass_time.items():
            metrics = {metric: self_time[pass_id][span]
                       for metric, span in SELF_TIME_METRICS.items()}
            metrics.update({name: self.counts[pass_id][name] for name in COUNT_METRICS})
            masks = self.masks[pass_id]
            metrics["measures.ggm.bipartitions"] = len(masks)
            metrics["measures.ggm.gram_gflop_computed"] = sum(gram_gflop(n, mask)
                                                              for _, n, mask in masks)
            metrics["measures.ggm_share"] = ggm_total[pass_id] / duration
            out[pass_id] = metrics
        return out

    def write(self, path):
        """Write every span as gzipped CSV: name,start,end,parent,pass."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for name, start, end, parent, pass_id in self.spans:
                fh.write(f"{name},{start!r},{end!r},{'' if parent is None else parent},"
                         f"{pass_id}\n")
