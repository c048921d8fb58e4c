"""In-memory span recorder and the patches that put spans around the package.

Spans are recorded from outside the package only: ``instrument`` replaces the
public functions of each module (and the few private ones the harness and the
SP pipeline dispatch through) with wrappers, at the names where the calling
module looks them up, and ``restore`` puts the originals back.  Nothing under
``src/`` is changed.

A span is (id, name, start, end, parent, op).  Each thread keeps its own
parent stack; a thread whose stack is empty (a ``harness`` pool worker)
attaches its spans to ``Tracer.adopt``, the sweep span that started the pool.
Counts (rows, bytes, bids, oracle draws, ...) go into ``Tracer.counters``.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, id, name, start, end=None, parent=None, op=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.adopt = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        if op is None and parent is not None:
            op = parent.op
        s = Span(next(self._ids), name, time.perf_counter(),
                 parent=parent.id if parent is not None else None, op=op)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def count(self, name, inc=1):
        with self._lock:
            self.counters[name] += inc


class NoTrace:
    """Stands in for a Tracer when tracing is off."""

    adopt = None

    def span(self, name, op=None):
        return nullcontext()


# -- span-tree arithmetic -----------------------------------------------------


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; the union is taken, so
    self time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def roots(spans):
    ids = {s.id for s in spans}
    return [s for s in spans if s.parent is None or s.parent not in ids]


def by_name(spans):
    """Name -> (calls, summed duration, summed self time)."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.id]
    return {k: tuple(v) for k, v in out.items()}


# -- instrumentation ----------------------------------------------------------


def _wrap(tracer, name, fn, after=None, before=None, op=None):
    """Span ``name`` around ``fn``; ``before(args)``/``after(args, result)``
    record counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        with tracer.span(name, op=op(args) if op else None):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counting(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def _size(path):
    return os.path.getsize(path)


def _breakpoints(cdfs):
    return sum(int(c.breakpoints.size) for c in cdfs)


def instrument(tracer, patches):
    """Install a span at every layer boundary of the package."""
    from auctionmetrics import (auction_sim, cli, dist_core, fp_estimator,
                                fp_value, harness, io, sp_estimator)

    T = tracer
    c = T.count

    # io: CSV logs and JSON bundles, patched on the module that cli calls into
    patches.set(io, "io_write_samples", _wrap(
        T, "io.csv_write", io.io_write_samples,
        after=lambda a, r: (c("io.csv_write.rows", a[1].n),
                            c("io.csv_write.bytes", _size(a[0])))))
    patches.set(io, "io_read_samples", _wrap(
        T, "io.csv_read", io.io_read_samples,
        before=lambda a: c("io.csv_read.bytes", _size(a[0])),
        after=lambda a, r: c("io.csv_read.rows", r.n)))
    patches.set(io, "io_write_cdfs", _wrap(
        T, "io.bundle_write", io.io_write_cdfs,
        after=lambda a, r: (c("io.bundle_write.breakpoints", _breakpoints(a[1])),
                            c("io.bundle_write.bytes", _size(a[0])))))
    patches.set(io, "io_read_cdfs", _wrap(
        T, "io.bundle_read", io.io_read_cdfs,
        after=lambda a, r: c("io.bundle_read.breakpoints", _breakpoints(r))))

    # auction_sim: log simulation and the reserve-probe oracles
    def bids(a, r):
        c("auction_sim.simulate.bids", a[1] * a[0].k)

    for mod in (cli, harness):
        for fname in ("simulate_fp", "simulate_sp"):
            patches.set(mod, fname, _wrap(T, "auction_sim.simulate",
                                          getattr(mod, fname), after=bids))

    def oracle_factory(make):
        @functools.wraps(make)
        def factory(model):
            oracle = make(model)

            def traced(r, n, rng):
                c("auction_sim.oracle.bids", n * model.k)
                with T.span("auction_sim.oracle"):
                    return oracle(r, n, rng)

            traced.k = oracle.k
            return traced

        return factory

    for fname in ("make_fp_partial_oracle", "make_sp_partial_oracle"):
        patches.set(cli, fname, oracle_factory(getattr(cli, fname)))

    # dist_core: quantile functions (used to draw bids) and the distances
    def ppf(name, method):
        @functools.wraps(method)
        def traced(self, q):
            c(name + ".points", getattr(q, "size", 1))
            with T.span(name):
                return method(self, q)

        return traced

    patches.set(dist_core.PiecewiseCdf, "ppf",
                ppf("dist_core.ppf.linear", dist_core.PiecewiseCdf.ppf))
    patches.set(dist_core.BoundedDensityModel, "ppf",
                ppf("dist_core.ppf.density", dist_core.BoundedDensityModel.ppf))
    for mod in (cli, harness):
        for fname in ("kolmogorov", "wasserstein1"):
            patches.set(mod, fname, _wrap(T, "dist_core." + fname, getattr(mod, fname)))
        patches.set(mod, "levy", _wrap(
            T, "dist_core.levy", mod.levy,
            before=lambda a: c("dist_core.levy.breakpoints",
                               a[0].breakpoints.size + a[1].breakpoints.size)))

    # fp_estimator: tail sums, the effective/full estimators, the probes
    ghat = _wrap(T, "fp_estimator.ghat", fp_estimator.estimate_ghat,
                 before=lambda a: c("fp_estimator.ghat.samples", a[0].n))
    patches.set(fp_estimator, "estimate_ghat", ghat)
    patches.set(fp_value, "estimate_ghat", ghat)
    patches.set(fp_estimator, "estimate_bid_cdf_effective", _wrap(
        T, "fp_estimator.effective", fp_estimator.estimate_bid_cdf_effective))
    patches.set(fp_estimator, "estimate_bid_cdf_full", _wrap(
        T, "fp_estimator.full", fp_estimator.estimate_bid_cdf_full))
    patches.set(fp_estimator, "noisy_quantile_search", _counting(
        T, "fp_estimator.partial.searches", fp_estimator.noisy_quantile_search))
    patches.set(fp_estimator, "fp_partial_estimate", _wrap(
        T, "fp_estimator.partial", fp_estimator.fp_partial_estimate,
        after=lambda a, r: (c("fp_estimator.partial.oracle_draws", r[1]["oracle_calls"]),
                            c("fp_estimator.partial.levels", r[1]["levels"]))))

    # fp_value: value estimation and its best-response inversion
    patches.set(fp_value, "estimate_value_cdf_effective", _wrap(
        T, "fp_value.estimate", fp_value.estimate_value_cdf_effective))
    patches.set(fp_value, "_compose_value_cdf", _wrap(
        T, "fp_value.inversion", fp_value._compose_value_cdf,
        after=lambda a, r: c("fp_value.inversion.value_points",
                             r[0].breakpoints.size)))

    # sp_estimator: prep, grid, fixed point, recovery, probes
    patches.set(sp_estimator, "estimate_sp", _wrap(
        T, "sp_estimator.estimate", sp_estimator.estimate_sp))
    for fname in ("empirical_G_sp", "coarse_U"):
        patches.set(sp_estimator, fname, _wrap(
            T, "sp_estimator.prep", getattr(sp_estimator, fname)))
    patches.set(sp_estimator, "_build_grid", _wrap(
        T, "sp_estimator.grid", sp_estimator._build_grid,
        after=lambda a, r: (c("sp_estimator.grid.macro_intervals", r[0].T),
                            c("sp_estimator.grid.micro_points", sum(r[0].micro_counts)))))
    patches.set(sp_estimator, "run_fixed_point", _wrap(
        T, "sp_estimator.fixed_point", sp_estimator.run_fixed_point))
    patches.set(sp_estimator, "fixed_point_map", _counting(
        T, "sp_estimator.fixed_point.map_calls", sp_estimator.fixed_point_map))
    patches.set(sp_estimator, "recover_F", _wrap(
        T, "sp_estimator.recover", sp_estimator.recover_F))
    patches.set(sp_estimator, "sp_partial_pointwise", _counting(
        T, "sp_estimator.partial.pointwise_calls", sp_estimator.sp_partial_pointwise))
    patches.set(sp_estimator, "sp_partial_estimate", _wrap(
        T, "sp_estimator.partial", sp_estimator.sp_partial_estimate,
        after=lambda a, r: c("sp_estimator.partial.oracle_draws", r[1]["oracle_calls"])))

    # isotonic: PAV, looked up by name in both callers
    for mod in (fp_value, sp_estimator):
        patches.set(mod, "pav_nondecreasing", _wrap(
            T, "isotonic.pav", mod.pav_nondecreasing,
            before=lambda a: c("isotonic.pav.points", len(a[0]))))

    # harness: one span per sweep cell, opened on the pool's worker threads
    patches.set(harness, "_run_cell", _wrap(
        T, "harness.cell", harness._run_cell,
        op=lambda a: f"{a[0].estimator}/n={a[1]}/seed={a[2]}"))
    # the equilibrium solver is called by the benchmark itself
    patches.set(auction_sim, "solve_asymmetric_equilibrium", _wrap(
        T, "auction_sim.equilibrium", auction_sim.solve_asymmetric_equilibrium))
