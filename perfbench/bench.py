"""Runner: set-up, timed passes, traced passes, and the report."""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 5      # set-ups per untraced run; setup_s is their median
PROBE_REPS = 5      # interpreter probes per traced run
TRACED_REPS = 2     # traced repetitions, whose counts must agree exactly
PROBE_EVERY_S = 0.25       # interval of the speed probe
SMOOTH_S = 1.0             # probes this close to an operation also set its scale
REFERENCE_PROBE_S = 0.012  # probe duration that defines reference speed

IMPORT_PROBE = ("import time; t = time.perf_counter(); import fallfact; "
                "print(time.perf_counter() - t); print(fallfact.__file__)")


def _probe_work() -> None:
    total = Fraction(0)
    for k in range(1, 2500):
        total += Fraction(1, k * k)


class Speed:
    """Machine speed, sampled by a fixed pure-Python probe every PROBE_EVERY_S.

    On a shared host the same work can take 40 % longer from one minute to
    the next, and the probe slows down with it.  An interval timer runs the
    probe from a signal handler, so samples land inside long operations
    too; the probe's own time is taken out of the operation it interrupted.
    An operation's time is then scaled by REFERENCE_PROBE_S over the probes
    taken during it and within SMOOTH_S of it, which gives seconds at
    reference speed.  One probe varies by about 8 %; drift that matters
    lasts seconds to minutes, so averaging a few seconds of probes loses
    nothing.  The probe is benchmark code: no change to fallfact
    changes its duration.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []       # perf_counter at the end of each probe
        self.durations: list[float] = []
        self.probe_s = 0.0                # total time spent probing
        self.on_probe = None              # called with each probe's duration
        self._paused = False

    def probe(self, signum=None, frame=None) -> None:
        if signum is not None and self._paused:
            return
        self._paused = True  # a timer tick during a slow probe is skipped
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self._paused = False
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.probe_s += t1 - t0
        if self.on_probe is not None:
            self.on_probe(t1 - t0)

    def __enter__(self) -> "Speed":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    @contextmanager
    def paused(self):
        """No probes while a child process runs: the two would share the CPU.
        One probe follows as soon as it has ended."""
        self._paused = True
        try:
            yield
        finally:
            self.probe()

    def timed(self, fn, *args, **kwargs):
        """(result or exception, wall seconds without probes, start, end)."""
        probed = self.probe_s
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # handed back to the caller, which counts it
            result = exc
        t1 = perf_counter()
        return result, (t1 - t0) - (self.probe_s - probed), t0, t1

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S / probe duration, averaged over the probes within
        SMOOTH_S of [t0, t1] and the nearest one on each side."""
        lo = max(bisect.bisect_left(self.ends, t0 - SMOOTH_S) - 1, 0)
        hi = min(bisect.bisect_right(self.ends, t1 + SMOOTH_S), len(self.ends) - 1)
        rates = [REFERENCE_PROBE_S / d for d in self.durations[lo:hi + 1]]
        return sum(rates) / len(rates)


class Ops:
    """Closed-loop operation log of one pass: per-stage call times and failures.

    raw holds wall times without probes; times holds seconds at reference
    speed once finish() has run, after the Speed has probed past the pass.
    """

    def __init__(self, speed: Speed, tracer=None) -> None:
        self.raw: dict[str, list[float]] = {}
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.speed = speed
        self.tracer = tracer
        self._spans: list[tuple[str, float, float]] = []

    def call(self, stage: str, fn, *args, **kwargs):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = stage

            def fn(*a, _fn=fn, **k):
                with tracer.span("op." + stage):
                    return _fn(*a, **k)

        result, elapsed, t0, t1 = self.speed.timed(fn, *args, **kwargs)
        self._spans.append((stage, t0, t1))
        self.raw.setdefault(stage, []).append(elapsed)
        if isinstance(result, Exception):  # a failing operation is counted; the pass goes on
            self.fail(f"{stage}#{len(self.raw[stage]) - 1}",
                      f"{type(result).__name__}: {result}")
            return None
        return result

    def child(self):
        """Context for running a child process inside an operation."""
        return self.speed.paused()

    def finish(self) -> None:
        """Scale every time to reference speed."""
        seen: dict[str, int] = {}
        for stage, t0, t1 in self._spans:
            i = seen.get(stage, 0)
            seen[stage] = i + 1
            self.times.setdefault(stage, []).append(
                self.raw[stage][i] * self.speed.scale(t0, t1))

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, message)

    def expect(self, key: str, ok: bool, message: str) -> None:
        """An output check: a false `ok` fails the operation named by key."""
        if not ok:
            self.fail(key, message)

    def stage_s(self, *stages: str) -> float:
        return sum(sum(self.times.get(s, ())) for s in stages)

    def total_s(self) -> float:
        return self.stage_s(*self.times)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FALLFACT_PRECISION_BITS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], cwd=None, timeout: float = 150) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


def import_probe() -> float:
    """Seconds `import fallfact` takes in a fresh interpreter; checks which copy."""
    proc = run_child([sys.executable, "-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: fallfact does not import from {ROOT / 'src'}:\n"
                         + proc.stderr)
    elapsed, where = proc.stdout.split("\n")[:2]
    check_working_tree(where)
    return float(elapsed)


def check_working_tree(module_file: str) -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(module_file).resolve().parents:
        raise SystemExit(f"perfbench: measured fallfact at {module_file}, "
                         f"not the working tree under {src}")


def load_package():
    """Import fallfact from ./src of this checkout, and nothing else."""
    if not (ROOT / "src" / "fallfact" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fallfact source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import fallfact
    import fallfact.cli
    import fallfact.serialization
    check_working_tree(fallfact.__file__)
    return fallfact


def environment(ff) -> dict:
    import mpmath
    import mpmath.libmp
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "fallfact": ff.__file__}


def tail(samples: list[float]):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            ordered = sorted(samples)
            return q, ordered[min(n - 1, int(n * q / 100))]
    return None, None


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """What the runner calls.  Subclasses define inputs_digest, setup,
    references (untimed), run_pass, check and summary (report lines)."""

    in_children = False  # True when the work runs in child processes

    def __init__(self, ff, out_dir: Path, seed: int) -> None:
        self.ff, self.out_dir, self.seed = ff, out_dir, seed

    def teardown(self, state) -> None:
        pass

    def replay(self, state, ops):
        """The pass the traced run wraps; the same pass unless overridden."""
        return self.run_pass(state, ops)

    def layer_extras(self, out) -> dict:
        return {}

    def notes(self) -> list[str]:
        return []


def make_workload(name: str, ff, seed: int) -> Workload:
    from perfbench import cli_tour, exact_core, numeric_eval
    table = {"cli-tour": cli_tour.CliTour, "exact-core": exact_core.ExactCore,
             "numeric-eval": numeric_eval.NumericEval}
    return table[name](ff, OUT_DIR, seed)


# -- untraced run ------------------------------------------------------------------

def timed_run(wl, seconds: float):
    setups, passes = [], []
    with Speed() as speed:
        state = None
        for _ in range(SETUP_REPS):
            if state is not None:
                wl.teardown(state)
            t0 = perf_counter()
            with speed.paused():
                imported = import_probe()
            state, setup_s, _, t1 = speed.timed(wl.setup)
            setups.append((imported + setup_s, t0, t1))
        try:
            wl.references(state)
            while not passes or sum(wall for wall, _ in passes) < seconds:
                ops = Ops(speed)
                t0 = perf_counter()
                out = wl.run_pass(state, ops)
                passes.append((perf_counter() - t0, ops))
                wl.check(state, out, ops)
                del out
                gc.collect()  # each pass starts without the last one's cyclic garbage
        finally:
            wl.teardown(state)
    for _, ops in passes:
        ops.finish()
    return [s * speed.scale(t0, t1) for s, t0, t1 in setups], passes, speed


def end_to_end(wl, setups, passes, speed) -> tuple[dict, list[str]]:
    pass_times = [ops.total_s() for _, ops in passes]
    # a typical pass, stage by stage: a stall in one stage of one pass is dropped
    typical = sum(statistics.median(ops.stage_s(stage) for _, ops in passes)
                  for stage in passes[0][1].times)
    rss = peak_rss_mb(children=wl.in_children)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": typical, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    lines = [
        f"metric setup_s {metrics['setup_s']['value']:.6f} s median n={len(setups)}",
        f"metric pass_s {typical:.6f} s sum of per-stage medians n={len(pass_times)}"
        " (no tail percentile: fewer than 11 passes)" * (len(pass_times) < 11),
        "pass_s_each " + " ".join(f"{t:.3f}" for t in pass_times),
        "pass_wall_s_each " + " ".join(f"{w:.3f}" for w, _ in passes),
        f"speed_probe_ms median {1e3 * statistics.median(speed.durations):.3f} "
        f"n={len(speed.durations)} (reference {1e3 * REFERENCE_PROBE_S:g})",
        f"metric peak_rss_mb {rss:.3f} MB "
        + ("max over child processes" if wl.in_children else "this process"),
    ]
    attempted = sum(ops.attempted for _, ops in passes)
    failed = sum(len(ops.failures) for _, ops in passes)
    lines.append(f"metric fail_ratio {failed / attempted:.6g} 1 "
                 f"({failed} of {attempted} operations)")
    for name, value, unit, n, note in wl.summary([ops for _, ops in passes]):
        lines.append(f"metric {name} {value:.6g} {unit} n={n} {note}".rstrip())
    return metrics, lines


# -- traced run ----------------------------------------------------------------------

LAYER_TIMES = {  # per-layer metric -> span or leaf name whose self time it is
    "exact.to_mpc.s": "exact.to_mpc",
    "basis.stirling_build.s": "basis.stirling_build",
    "basis.taylor.s": "basis.taylor",
    "solver.derive.s": "solver.derive",
    "solver.solve.s": "solver.solve",
    "solver.continuation.s": "solver.continuation",
    "solver.verify.s": "solver.verify",
    "series.evaluate.s": "series.evaluate",
    "series.evaluate_exact.s": "series.evaluate_exact",
    "analysis.chi.s": "analysis.chi",
    "analysis.classify.s": "analysis.classify",
    "analysis.profile.s": "analysis.profile",
    "analysis.fit.s": "analysis.fit",
    "interp.newton_series.s": "interp.newton_series",
    "interp.reconstruct.s": "interp.reconstruct",
    "riccati.verify.s": "riccati.verify",
    "serialization.series_to_json.s": "serialization.series_to_json",
    "serialization.series_from_json.s": "serialization.series_from_json",
}

CLI_COMMANDS = {  # per-layer metric -> cli-tour stages (whole command, in process)
    "cli.solve.s": ("solve_order_half", "solve_geometric"),
    "cli.eval.s": ("eval",),
    "cli.analyze_fit.s": ("analyze_fit",),
    "cli.riccati_verify.s": ("riccati_verify",),
    "cli.interp.s": ("interp",),
    "cli.continue_eval.s": ("continue_eval",),
    "cli.convert_taylor.s": ("convert_taylor",),
}

FIT_SPLIT = {  # where `analyze --fit` spends its time, by self time
    "cli.analyze_fit.evaluate.s": "series.evaluate",
    "cli.analyze_fit.to_mpc.s": "exact.to_mpc",
    "cli.analyze_fit.contexts.s": "series.make_context",
    "cli.analyze_fit.profile.s": "analysis.profile",
    "cli.analyze_fit.fit.s": "analysis.fit",
}

# counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC = ("exact.coeff_bits", "solver.solve.coeffs", "basis.stirling_rows",
                 "interp.triangle_entries", "interp.reconstruct.bad_points",
                 "series.terms_summed", "series.stop.window", "series.stop.integer",
                 "series.stop.exhausted", "series.stop.n_max", "series.contexts",
                 "exact.to_mpc.calls")


def layer_counts(tracer, extras: dict) -> dict:
    c, calls = tracer.counts, tracer.calls
    circles = c["analysis.profile.circles"]
    return {
        "exact.coeff_bits": c["exact.coeff_bits"],
        "exact.to_mpc.calls": calls["exact.to_mpc"],
        "basis.stirling_rows": c["basis.stirling_rows"],
        "solver.solve.coeffs": c["solver.solve.coeffs"],
        "solver.continuation.steps": c["solver.continuation.steps"],
        "series.evaluate.calls": calls["series.evaluate"],
        "series.terms_summed": c["series.terms_summed"],
        "series.stop.window": c["series.stop.window"],
        "series.stop.integer": c["series.stop.integer"],
        "series.stop.exhausted": c["series.stop.exhausted"],
        "series.stop.n_max": c["series.stop.n_max"],
        "series.contexts": calls["series.make_context"],
        "analysis.profile.valid_ratio":
            c["analysis.profile.valid_circles"] / circles if circles else 0.0,
        "interp.triangle_entries": c["interp.triangle_entries"],
        "interp.reconstruct.bad_points": extras.get("interp.reconstruct.bad_points", 0),
        "riccati.points_verified": c["riccati.points_verified"],
        "riccati.points_skipped": c["riccati.points_skipped"],
        "serialization.json_bytes": c["serialization.json_bytes"],
    }


def layer_times(tracer, raw: dict) -> dict:
    """Per-layer wall times of one traced pass; raw holds its per-stage call times."""
    out = {m: tracer.self_s(name) for m, name in LAYER_TIMES.items()}
    for m, stages in CLI_COMMANDS.items():
        out[m] = sum(sum(raw.get(s, ())) for s in stages)
    split = 0.0
    for m, name in FIT_SPLIT.items():
        out[m] = tracer.op_self_s("analyze_fit", name)
        split += out[m]
    out["cli.analyze_fit.other.s"] = max(0.0, out["cli.analyze_fit.s"] - split)
    return out


def traced_pass(wl, ff, speed: Speed):
    """Set-up and one pass with every wrapper installed."""
    from perfbench.tracing import Tracer

    tracer = Tracer()
    ops = Ops(speed, tracer)
    tracer.install(ff)
    speed.on_probe = tracer.charge_probe
    try:
        tracer.op = "setup"
        with tracer.span("setup"):
            state = wl.setup()
        out = wl.replay(state, ops)
    finally:
        speed.on_probe = None
        tracer.restore()
    try:
        wl.check(state, out, ops)
    finally:
        wl.teardown(state)
    return tracer, ops, wl.layer_extras(out)


def traced_run(wl, ff, spans_path: Path):
    """Per-layer metrics, in seconds at reference speed like the end-to-end ones."""
    starts, imports, untraced, reps = [], [], [], []
    with Speed() as speed:
        t0 = perf_counter()
        with speed.paused():
            for _ in range(PROBE_REPS):
                t = perf_counter()
                run_child([sys.executable, "-c", "pass"]).check_returncode()
                starts.append(perf_counter() - t)
                t = perf_counter()
                run_child([sys.executable, "-c", "import fallfact"]).check_returncode()
                imports.append(perf_counter() - t)
            import_probe()
        probe_scale = speed.scale(t0, perf_counter())

        base = wl.setup()
        wl.references(base)
        try:
            # untraced and traced passes alternate, so drift on a shared
            # machine does not land on one side of the overhead estimate
            for _ in range(TRACED_REPS):
                ops = Ops(speed)
                out = wl.replay(base, ops)
                wl.check(base, out, ops)
                untraced.append(ops)
                del out
                gc.collect()
                reps.append(traced_pass(wl, ff, speed))
                gc.collect()
        finally:
            wl.teardown(base)
    for ops in untraced + [ops for _, ops, _ in reps]:
        ops.finish()

    counts = [layer_counts(t, extras) for t, _, extras in reps]
    mismatched = [k for k in DETERMINISTIC if len({c[k] for c in counts}) > 1]
    for k in mismatched:
        reps[-1][1].fail("determinism:" + k,
                         f"{k} differs between traced runs: {[c[k] for c in counts]}")

    # each layer time is scaled like the pass it belongs to
    times = []
    for t, ops, _ in reps:
        scale = ops.total_s() / sum(map(sum, ops.raw.values()))
        times.append({m: v * scale for m, v in layer_times(t, ops.raw).items()})
    metrics = dict(counts[0])
    for m in times[0]:
        metrics[m] = statistics.median(t[m] for t in times)
    start_s = statistics.median(starts)
    metrics["cli.python_start.s"] = start_s * probe_scale
    metrics["cli.import.s"] = (statistics.median(imports) - start_s) * probe_scale
    metrics["trace.untraced_pass_s"] = statistics.median(o.total_s() for o in untraced)
    metrics["trace.traced_pass_s"] = statistics.median(o.total_s() for _, o, _ in reps)
    metrics["trace.overhead_s"] = \
        metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]

    reps[0][0].write_spans(spans_path)
    return metrics, untraced + [ops for _, ops, _ in reps], mismatched


def per_layer(bench: dict, metrics: dict) -> dict:
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


# -- main ----------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fallfact benchmark")
    p.add_argument("--workload", required=True,
                   choices=["cli-tour", "exact-core", "numeric-eval"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ff = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    wl = make_workload(args.workload, ff, args.seed)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment(ff).items()))
    print(f"inputs_sha256 {wl.inputs_digest()}")

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
        layer, all_ops, mismatched = traced_run(wl, ff, spans_path)
        metrics = per_layer(bench, layer)
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        print(f"spans {spans_path.relative_to(ROOT)}")
        print("determinism " + ("ok" if not mismatched else "MISMATCH " + " ".join(mismatched)))
    else:
        setups, passes, speed = timed_run(wl, args.seconds)
        metrics, lines = end_to_end(wl, setups, passes, speed)
        print("\n".join(lines))
        all_ops = [ops for _, ops in passes]

    for line in wl.notes():
        print(line)
    attempted = sum(o.attempted for o in all_ops)
    failures = [(k, msg) for o in all_ops for k, msg in o.failures.items()]
    for key, msg in failures[:20]:
        print(f"FAILED {key}: {msg}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0
