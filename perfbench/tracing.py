"""Span recorder and the wrappers the traced run installs into fallfact.

The traced run rebinds public callables where the package looks them up
(module globals, and ``StirlingTable.ensure`` on its class), so every call
is counted and timed without touching the package source.  The untraced
run installs nothing.

Spans live in memory as ``(id, parent, name, op, start_ns, end_ns)`` and are
written out once, at the end.  Calls that happen once per summed term
(``to_mpc``, ``make_context``) are too many to keep one span each: they are
leaves, so their time is added to the enclosing span's child time and to
their own totals, with no span of their own.

Self time of a span is its duration minus the time covered by its wrapped
children.  Work the tracer does after a call returns (counting result bits
or JSON bytes) is charged to no layer.
"""

from __future__ import annotations

import csv
import json
import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def coeff_bits(coeffs) -> int:
    """Total numerator and denominator bits of exact Gaussian-rational scalars."""
    total = 0
    for c in coeffs:
        total += (c.re.numerator.bit_length() + c.re.denominator.bit_length()
                  + c.im.numerator.bit_length() + c.im.denominator.bit_length())
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list[int]] = []   # [span id, child ns] per open span
        self.self_ns: Counter = Counter()  # (op, name) -> self time
        self.calls: Counter = Counter()    # name -> calls
        self.counts: Counter = Counter()   # named work counters
        self.op = ""
        self.probe_ns = 0  # speed probes run inside traced calls, charged to none
        self._next_id = 0
        self._patches: list[tuple] = []
        self._rows = weakref.WeakKeyDictionary()  # StirlingTable -> highest row built

    # -- recording -----------------------------------------------------------

    def charge_probe(self, seconds: float) -> None:
        """A speed probe ran inside the innermost open span: child time, no layer's."""
        ns = int(seconds * 1e9)
        self.probe_ns += ns
        if self.stack:
            self.stack[-1][1] += ns

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0]
        self.stack.append(frame)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][1] += dur
            self.self_ns[(self.op, name)] += dur - frame[1]
            self.calls[name] += 1
            self.spans.append((sid, parent, name, self.op, t0, t1))

    def timed(self, name: str, fn, after=None):
        """fn wrapped in a span; after(tracer, result, args, kwargs) counts work."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                b0 = perf_counter_ns()
                after(tracer, result, args, kwargs)
                if tracer.stack:
                    tracer.stack[-1][1] += perf_counter_ns() - b0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """fn counted and timed without a span of its own."""
        tracer = self
        self_ns = self.self_ns
        calls = self.calls

        def wrapper(*args, **kwargs):
            probed = tracer.probe_ns
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dur = perf_counter_ns() - t0 - (tracer.probe_ns - probed)
            if tracer.stack:
                tracer.stack[-1][1] += dur
            self_ns[(tracer.op, name)] += dur
            calls[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    def install(self, ff) -> None:
        """Wrap fallfact's layer entry points wherever the package calls them."""
        series, solver, analysis = ff.series, ff.solver, ff.analysis
        interp, riccati, serialization, cli = ff.interp, ff.riccati, ff.serialization, ff.cli

        def bind(new, *modules, attr):
            for mod in modules:
                self.patch(mod, attr, new)

        bind(self.leaf("exact.to_mpc", series.to_mpc),
             series, solver, riccati, attr="to_mpc")
        bind(self.leaf("series.make_context", series.make_context),
             series, solver, riccati, interp, attr="make_context")
        bind(self.timed("series.evaluate", series.evaluate, _after_evaluate),
             series, solver, interp, cli, attr="evaluate")
        bind(self.timed("series.evaluate_exact", series.evaluate_exact),
             series, interp, attr="evaluate_exact")
        bind(self.timed("basis.taylor", series.taylor_from_binomial, _after_taylor),
             series, cli, attr="taylor_from_binomial")
        bind(self.timed("solver.derive", solver.derive_recurrence),
             solver, cli, attr="derive_recurrence")
        bind(self.timed("solver.solve", solver.solve_recurrence, _after_solve),
             solver, attr="solve_recurrence")
        bind(self.timed("solver.continuation", solver.continuation_eval,
                        _after_continuation),
             solver, cli, attr="continuation_eval")
        bind(self.timed("solver.verify", solver.verify_solution),
             solver, attr="verify_solution")
        bind(self.timed("analysis.chi", analysis.chi_estimate),
             analysis, solver, cli, attr="chi_estimate")
        bind(self.timed("analysis.classify", analysis.classify),
             analysis, solver, cli, attr="classify")
        bind(self.timed("analysis.profile", analysis.modulus_profile, _after_profile),
             analysis, cli, attr="modulus_profile")
        bind(self.timed("analysis.fit", analysis.fit_order_type),
             analysis, cli, attr="fit_order_type")
        bind(self.timed("interp.newton_series", interp.newton_series,
                        _after_newton),
             interp, cli, attr="newton_series")
        bind(self.timed("interp.reconstruct", interp.reconstruct_check),
             interp, cli, attr="reconstruct_check")
        bind(self.timed("riccati.verify", riccati.verify_riccati, _after_riccati),
             riccati, cli, attr="verify_riccati")
        bind(self.timed("serialization.series_to_json",
                        serialization.series_to_json, _after_to_json),
             serialization, cli, attr="series_to_json")
        bind(self.timed("serialization.series_from_json",
                        serialization.series_from_json, _after_from_json),
             serialization, cli, attr="series_from_json")
        self.patch(ff.basis.StirlingTable, "ensure",
                   self._growth_only(ff.basis.StirlingTable.ensure))

    def _growth_only(self, ensure):
        """Span only the ensure() calls that build new rows (the cold write)."""
        tracer = self
        rows = self._rows

        def wrapper(table, n):
            built = rows.get(table, 0)
            if n <= built:
                return ensure(table, n)
            with tracer.span("basis.stirling_build"):
                ensure(table, n)
            rows[table] = n
            tracer.counts["basis.stirling_rows"] += n - built

        return wrapper

    # -- output --------------------------------------------------------------

    def op_self_s(self, op: str, name: str) -> float:
        return self.self_ns[(op, name)] / 1e9

    def self_s(self, name: str) -> float:
        return sum(v for (_, n), v in self.self_ns.items() if n == name) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "op", "start_ns", "end_ns"])
            w.writerows(self.spans)


def _after_evaluate(tracer, res, args, kwargs):
    tracer.counts["series.terms_summed"] += res.terms_used
    tracer.counts["series.stop." + res.reason] += 1


def _after_solve(tracer, coeffs, args, kwargs):
    tracer.counts["solver.solve.coeffs"] += len(coeffs)
    tracer.counts["exact.coeff_bits"] += coeff_bits(coeffs)


def _after_taylor(tracer, tc, args, kwargs):
    if args[0].regime == "exact":
        tracer.counts["exact.coeff_bits"] += coeff_bits(tc.coeffs)


def _after_newton(tracer, series, args, kwargs):
    samples = args[0]
    n = len(samples.values) if hasattr(samples, "values") else len(samples)
    tracer.counts["interp.triangle_entries"] += n * (n + 1) // 2
    if series.regime == "exact":
        tracer.counts["exact.coeff_bits"] += coeff_bits(series.coeffs)


def _after_continuation(tracer, res, args, kwargs):
    tracer.counts["solver.continuation.steps"] += res.steps


def _after_profile(tracer, profile, args, kwargs):
    tracer.counts["analysis.profile.circles"] += len(profile.valid)
    tracer.counts["analysis.profile.valid_circles"] += sum(profile.valid)


def _after_riccati(tracer, report, args, kwargs):
    tracer.counts["riccati.points_verified"] += len(report.points)
    tracer.counts["riccati.points_skipped"] += len(report.skipped)


def _after_to_json(tracer, payload, args, kwargs):
    tracer.counts["serialization.json_bytes"] += len(json.dumps(payload))


def _after_from_json(tracer, series, args, kwargs):
    tracer.counts["serialization.json_bytes"] += len(json.dumps(args[0]))
