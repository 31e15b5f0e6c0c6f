"""Per-layer spans and counters, recorded from outside qlab.

The tracer replaces public functions and methods of qlab's modules with
wrappers that open a span on entry and close it on return.  Spans are
aggregated in memory by name (calls, inclusive time, self time); self
time is a span's duration minus the durations of the spans it directly
encloses.  Work done by the tracer itself (coefficient bit sizes, Laurent
row widths) runs inside ``excluded()`` and is subtracted from every span
open around it, so it lands in no layer's time.

``install`` patches every name a module imported with ``from ... import``,
because such a name is a separate binding that patching the defining
module would not reach.  ``restore`` undoes every patch.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from operator import itemgetter

_clock = time.perf_counter

SERIES_SPANS = (
    "mul_binomial",
    "div_binomial",
    "mul",
    "inverse",
    "add",
    "scale",
    "shift",
    "poch",
    "div_poch",
    "q_binomial",
    "phi_series",
    "first_difference",
)
LAURENT_SPANS = ("div_binomial", "add", "extract")
PARTITION_SPANS = ("partition_count", "spt", "moment", "ospt", "n_sc", "overlined_largest_sum")
REGISTRY_MODULES = ("four_parameter", "entries", "phi_sum", "spt_family", "moments", "classical")


def _binomial_ops(s, coeff, exp):
    """Multiply-adds of (1 - c q^e) applied to s: one per shifted coefficient."""
    if coeff == 0 or exp > s.order:
        return 0
    return s.order + 1 - exp if exp else s.order + 1


def _mul_ops(s, other):
    """Schoolbook product to the common order; a scalar factor is counted
    by the scale call it turns into."""
    if hasattr(other, "order"):
        t = min(s.order, other.order)
        return (t + 1) * (t + 2) // 2
    return 0


def _linear_ops(s, *args):
    return s.order + 1


def _inverse_ops(s):
    return s.order * (s.order + 1) // 2


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.bits_total = 0
        self.bits_coeffs = 0
        self._stack = []
        self._excluded = [0.0]
        self._excluding = False
        self._patches = []
        self._pending_counters = []

    # -- spans ----------------------------------------------------------

    def wrap(self, name, fn, ops=None):
        """fn inside a span `name`; ops(*args) adds to series.coeff_ops."""
        stack, excluded = self._stack, self._excluded
        calls, inclusive, self_time, counts = self.calls, self.inclusive, self.self_time, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            skipped = excluded[0]
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - started - (excluded[0] - skipped)
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                inclusive[name] += duration
                self_time[name] += duration - children[0]
            if ops is not None:
                counts["series.coeff_ops"] += ops(*args, **kwargs)
            return result

        return wrapper

    @contextmanager
    def excluded(self):
        """Tracer bookkeeping: its time is charged to no open span.

        Only the outermost of nested exclusions counts, so that a gauge
        sample taken by the timer signal inside bookkeeping is not left
        out twice.
        """
        if self._excluding:
            yield
            return
        self._excluding = True
        started = _clock()
        try:
            yield
        finally:
            self._excluded[0] += _clock() - started
            self._excluding = False

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patch_span(self, owners, attr, name, ops=None):
        """Wrap one callable once and bind the wrapper under every owner."""
        original = owners[0].__dict__[attr]
        wrapper = self.wrap(name, original, ops)
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                self.patch(owner, attr, wrapper)

    # -- counters -----------------------------------------------------------

    def _counting(self, gen_fn):
        """Count yielded items at C speed: zip stops before advancing the
        counter once the generator is exhausted."""
        pending = self._pending_counters

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            counter = itertools.count()
            pending.append(counter)
            return map(itemgetter(0), zip(gen_fn(*args, **kwargs), counter))

        return wrapper

    def _flushing(self, fn):
        """Every generator started inside fn is exhausted when it returns."""
        pending, counts = self._pending_counters, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(pending)
            try:
                return fn(*args, **kwargs)
            finally:
                counts["partitions.enumerated"] += sum(next(c) for c in pending[mark:])
                del pending[mark:]

        return wrapper

    def record_coeff_bits(self, series):
        with self.excluded():
            for c in series.coeffs:
                bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                self.bits_total += bits
                if bits > self.maxima["rational.coeff_bits_max"]:
                    self.maxima["rational.coeff_bits_max"] = bits
            self.bits_coeffs += len(series.coeffs)

    # -- installation -------------------------------------------------------

    def install(self):
        import qlab.cli as cli
        import qlab.identities.harness as harness
        import qlab.identities.model as model
        import qlab.identities.registry as registry
        import qlab.laurent as laurent
        import qlab.partitions as partitions
        import qlab.rational as rational
        import qlab.series as series

        id_modules = tuple(importlib.import_module(f"qlab.identities.{m}") for m in REGISTRY_MODULES)
        users = (series, laurent, partitions, harness, model, cli, registry) + id_modules

        def importers(module, attr):
            return [module] + [m for m in users if m is not module and attr in m.__dict__]

        q = series.QSeries
        self.patch_span([q], "mul_binomial", "series.mul_binomial", _binomial_ops)
        self.patch_span([q], "div_binomial", "series.div_binomial", _binomial_ops)
        self.patch_span([q], "__mul__", "series.mul", _mul_ops)
        self.patch_span([q], "inverse", "series.inverse", _inverse_ops)
        self.patch_span([q], "__add__", "series.add", _linear_ops)
        self.patch_span([q], "__sub__", "series.add", _linear_ops)
        self.patch_span([q], "scale", "series.scale", _linear_ops)
        self.patch_span([q], "shift", "series.shift")
        self.patch_span([q], "first_difference", "series.first_difference")
        for fn in ("poch", "div_poch", "q_binomial", "phi_series"):
            self.patch_span(importers(series, fn), fn, f"series.{fn}")

        z = laurent.LaurentZQSeries
        self.patch_span([z], "div_binomial", "laurent.div_binomial")
        self.patch_span([z], "__add__", "laurent.add")
        self.patch_span([z], "positive_z_part", "laurent.extract")
        self.patch_span([z], "set_z_one", "laurent.extract")
        z_derivative = self.wrap("laurent.extract", z.__dict__["z_derivative"])

        def measured_z_derivative(f):
            with self.excluded():
                width = max(len(f.row(n)) for n in range(f.order + 1))
                if width > self.maxima["laurent.row_width_max"]:
                    self.maxima["laurent.row_width_max"] = width
            return z_derivative(f)

        self.patch(z, "z_derivative", measured_z_derivative)

        for fn in ("partition_tuples", "distinct_partition_tuples"):
            self.patch(partitions, fn, self._counting(partitions.__dict__[fn]))
        for fn in PARTITION_SPANS:
            wrapper = self._flushing(self.wrap(f"partitions.{fn}", partitions.__dict__[fn]))
            for owner in importers(partitions, fn):
                self.patch(owner, fn, wrapper)
        post_init = partitions.Partition.__dict__["__post_init__"]
        counts = self.counts

        def counted_post_init(p):
            counts["partitions.partition_objects"] += 1
            post_init(p)

        self.patch(partitions.Partition, "__post_init__", counted_post_init)

        self.patch_span(importers(rational, "format_rat"), "format_rat", "rational.format")

        module_of = {
            identity.id: module.__name__.rsplit(".", 1)[1]
            for module in id_modules
            for identity in module.entries()
        }
        original_build_side = harness.build_side
        by_module = {
            name: self.wrap(f"identities.side.{name}", original_build_side)
            for name in REGISTRY_MODULES
        }

        def build_side(identity, side, env, n_value, order):
            result = by_module[module_of[identity.id]](identity, side, env, n_value, order)
            self.record_coeff_bits(result)
            return result

        self.patch(harness, "build_side", build_side)
        self.patch_span([harness], "verify", "identities.verify")
        self.patch_span([harness], "sample_env", "identities.sample_env")
        self.patch_span(importers(harness, "run_suite"), "run_suite", "identities.run_suite")
        self.patch_span([cli], "main", "cli.main")

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric as name -> (value, unit), named as in
        BENCHMARK.json; cli.bytes_out and trace.overhead_frac come from run.py."""
        out = {}

        def span(name, key, timing="self_s"):
            out[f"{name}.calls"] = (self.calls[key], "count")
            out[f"{name}.{timing}"] = (
                (self.self_time if timing == "self_s" else self.inclusive)[key], "s")

        for op in SERIES_SPANS:
            span(f"series.{op}", f"series.{op}")
        out["series.self_s"] = (sum(self.self_time[f"series.{op}"] for op in SERIES_SPANS), "s")
        out["series.coeff_ops"] = (self.counts["series.coeff_ops"], "ops_computed")
        mean_bits = self.bits_total / self.bits_coeffs if self.bits_coeffs else 0.0
        out["rational.coeff_bits_max"] = (self.maxima["rational.coeff_bits_max"], "bits")
        out["rational.coeff_bits_mean"] = (mean_bits, "bits")
        out["rational.format_calls"] = (self.calls["rational.format"], "count")
        out["rational.format_s"] = (self.inclusive["rational.format"], "s")
        for op in LAURENT_SPANS:
            span(f"laurent.{op}", f"laurent.{op}")
        out["laurent.row_width_max"] = (self.maxima["laurent.row_width_max"], "terms")
        out["partitions.enumerated"] = (self.counts["partitions.enumerated"], "count")
        out["partitions.partition_objects"] = (self.counts["partitions.partition_objects"], "count")
        for fn in PARTITION_SPANS:
            span(f"partitions.{fn}", f"partitions.{fn}")
        sides = [f"identities.side.{m}" for m in REGISTRY_MODULES]
        out["identities.side.calls"] = (sum(self.calls[s] for s in sides), "count")
        out["identities.side.self_s"] = (sum(self.self_time[s] for s in sides), "s")
        for m in REGISTRY_MODULES:
            out[f"identities.{m}.side_s"] = (self.inclusive[f"identities.side.{m}"], "s")
        span("identities.verify", "identities.verify")
        span("identities.sample_env", "identities.sample_env", timing="s")
        out["cli.emit_s"] = (self.self_time["cli.main"], "s")
        return out
