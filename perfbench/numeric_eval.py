"""numeric-eval: mpmath evaluation in process, many points per series.

Casting or caching once per series shows here and not in cli-tour's
two-point `eval`; exact-core never reaches this path.  The float samples
exercise the approx regime.  Point sets are stratified, so a different seed
moves every point but keeps the spread of radii, and so the work, the same.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import statistics
from fractions import Fraction

from perfbench import checks
from perfbench.bench import Workload, tail

README_M = {16.0: 30.0456239934, 64.0: 1664.537815, 256.0: 4998420.29206,
            1024.0: 4.45778004605e+13}   # M(r) as the README prints it
RADII = (4.0, 16.0, 64.0, 256.0, 1024.0)
SAMPLES_PER_CIRCLE = 64
N_ORDER_HALF, N_GEOMETRIC, N_RICCATI = 300, 200, 150
RICCATI_BITS = 256
N_FLOAT_SAMPLES = 120
RESIDUAL_TOL = 1e-9    # verify_solution, relative shift-form residual
RICCATI_TOL = 1e-8     # verify_riccati, the CLI's default --tol
RECONSTRUCT_TOL = 1e-6  # relative deviation that makes a sample point bad


def _stratified(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def generate(seed: int) -> dict:
    rng = random.Random(f"numeric-eval:{seed}")
    radius = [1024.0 ** u for u in _stratified(rng, 300)]
    angle = [2 * math.pi * u for u in _stratified(rng, 300)]
    points = [cmath.rect(r, t) for r, t in zip(radius, angle)]
    points += [4 * i + rng.randrange(4) for i in range(100)]  # exact `integer` path
    rng.shuffle(points)
    lhp = [complex(-0.5 - 19.5 * u, -8 + 16 * v)
           for u, v in zip(_stratified(rng, 20), _stratified(rng, 20))]
    verify = [cmath.rect(64.0 ** u, 2 * math.pi * v)
              for u, v in zip(_stratified(rng, 40), _stratified(rng, 40))]
    riccati = [complex(1.5 + 11 * u, -2 + 4 * v)
               for u, v in zip(_stratified(rng, 12), _stratified(rng, 12))]
    return {"points": points, "lhp": lhp, "verify": verify, "riccati": riccati}


class NumericEval(Workload):
    bad_points = None  # float-sample points off by more than RECONSTRUCT_TOL

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr(sorted(generate(self.seed).items())).encode()).hexdigest()

    def setup(self) -> dict:
        ff = self.ff
        poly, solve = ff.polynomial.poly, ff.solver.formal_solve
        state = generate(self.seed)
        state["floats"] = [2.0 ** (k / 3) for k in range(N_FLOAT_SAMPLES)]
        state["oh_eq"] = ff.solver.LinearDifferenceEquation(
            "delta", (poly(1), poly(3), poly(6, 4)))
        state["oh"], _ = solve(state["oh_eq"], {0: 1, 1: "-1/2"}, N_ORDER_HALF)
        state["geo_eq"] = ff.solver.LinearDifferenceEquation("delta", (poly("-1/2"), poly(1)))
        state["geo"], _ = solve(state["geo_eq"], {0: 1}, N_GEOMETRIC)
        state["ric_inst"] = ff.riccati.riccati_instance(4, 6, 3)
        state["ric"], _ = solve(state["ric_inst"].equation, {0: 1, 1: "-1/2"}, N_RICCATI)
        return state

    def references(self, state) -> None:
        """Twice the working precision, every stored coefficient summed."""
        oh = checks.RefSeries(state["oh"].coeffs, 256)
        self.ref_oh = oh
        self.ref_points = [oh.value(z) for z in state["points"]]
        angles = [2 * math.pi * k / SAMPLES_PER_CIRCLE for k in range(SAMPLES_PER_CIRCLE)]
        self.ref_m4 = max(abs(oh.value(cmath.rect(RADII[0], t))[0])
                          for t in angles + [math.pi])
        ctx = oh.ctx
        self.ref_lhp = [ctx.power(ctx.mpf(3) / 2, ctx.mpc(z)) for z in state["lhp"]]
        self.ref_verify = max(checks.shift_residual(oh, z, 4, 6, 3) for z in state["verify"])
        self.ref_ric = checks.RefSeries(state["ric"].coeffs, 2 * RICCATI_BITS)
        floats = checks.newton_coeffs([Fraction(v) for v in state["floats"]])
        self.ref_newton = [complex(float(c)) for c in floats]
        approx = checks.RefSeries(self.ref_newton, 256)
        self.ref_deviation = [float(abs(approx.value(k)[0] - v))
                              for k, v in enumerate(state["floats"])]

    def run_pass(self, state, ops) -> dict:
        ff = self.ff
        series, analysis, solver = ff.series, ff.analysis, ff.solver
        oh, geo, ric = state["oh"], state["geo"], state["ric"]

        def eval_oh(z):
            return series.evaluate(oh, z, 1e-12, 10000, precision_bits=128)

        def value_oh(z):
            return series.evaluate(oh, z).value

        def value_ric(z):
            return series.evaluate(ric, z, precision_bits=RICCATI_BITS).value

        out = {"points": [ops.call("evaluate", series.evaluate, oh, z)
                          for z in state["points"]]}
        out["profile"] = ops.call("profile", analysis.modulus_profile, eval_oh, RADII,
                                  SAMPLES_PER_CIRCLE)
        out["fit"] = ops.call("fit", analysis.fit_order_type, out["profile"])
        out["lhp"] = [ops.call("continuation", solver.continuation_eval, state["geo_eq"],
                               geo, z) for z in state["lhp"]]
        out["verify"] = ops.call("verify", solver.verify_solution, state["oh_eq"],
                                 value_oh, state["verify"])
        out["riccati"] = ops.call("riccati", ff.riccati.verify_riccati, state["ric_inst"],
                                  value_ric, state["riccati"], RICCATI_TOL, RICCATI_BITS)
        out["newton"] = ops.call("newton_float", ff.interp.newton_series, state["floats"])
        out["reconstruct"] = ops.call("reconstruct_float", ff.interp.reconstruct_check,
                                      out["newton"], state["floats"])
        return out

    def check(self, state, out, ops) -> None:
        for i, (z, res) in enumerate(zip(state["points"], out["points"])):
            if res is None:
                continue
            ops.expect(f"evaluate#{i}", res.converged and checks.close_to_reference(
                       self.ref_oh.ctx, res.value, *self.ref_points[i]),
                   f"evaluate at {z} differs from the 256-bit reference")

        prof = out["profile"]
        if prof is not None:
            got = dict(zip(prof.radii, prof.max_modulus))
            ops.expect("profile", all(prof.valid)
                   and all(checks.rel_close(got[r], m, 1e-9) for r, m in README_M.items())
                   and checks.rel_close(got[RADII[0]], float(self.ref_m4), 1e-9),
                   "M(r) differs from the README or the 256-bit reference")
            fit = out["fit"]
            want = _fit(prof.radii, prof.max_modulus)
            ops.expect("fit", fit is not None and checks.rel_close(fit.rho_fit, want[0], 1e-9)
                   and checks.rel_close(fit.tau_fit, want[1], 1e-9),
                   "order/type fit differs from least squares on M(r)")

        for i, (res, ref) in enumerate(zip(out["lhp"], self.ref_lhp)):
            if res is not None:
                err = abs(self.ref_oh.ctx.mpc(res.value) - ref)
                ops.expect(f"continuation#{i}", res.converged and err <= 1e-9 * abs(ref),
                       f"continuation differs from (3/2)^z by {float(err):.3g}")

        rep = out["verify"]
        ops.expect("verify", rep is not None and len(rep.residuals) == len(state["verify"])
               and rep.max_residual <= RESIDUAL_TOL and self.ref_verify <= RESIDUAL_TOL,
               "equation residual above 1e-9")

        ric = out["riccati"]
        if ric is not None:
            ref_max = max((checks.riccati_residual(self.ref_ric, z, 4, 6, 3)
                           for z in ric.points), default=0.0)
            ops.expect("riccati", ric.passed is not False
                   and len(ric.points) + len(ric.skipped) == len(state["riccati"])
                   and ref_max <= RICCATI_TOL,
                   f"Riccati residual {ric.max_residual:.3g} (reference {ref_max:.3g})")

        newton = out["newton"]
        ops.expect("newton_float", newton is not None
               and list(newton.coeffs) == self.ref_newton,
               "float Newton coefficients differ from the exact triangle, rounded")
        recon = out["reconstruct"]
        if recon is not None:
            ops.expect("reconstruct_float", all(
                abs(got - want) <= 1e-6 * max(1.0, want)
                for got, want in zip(recon.deviations, self.ref_deviation)),
                "reconstruct_check misreports the deviation of the stored series")
            self.bad_points = sum(
                d > RECONSTRUCT_TOL * max(1.0, v)
                for d, v in zip(recon.deviations, state["floats"]))
            self.max_deviation = recon.max_deviation

    def layer_extras(self, out) -> dict:
        return {"interp.reconstruct.bad_points": self.bad_points}

    def summary(self, passes) -> list:
        n = len(passes)
        calls = [t for ops in passes for t in ops.times.get("evaluate", ())]
        q, tail_s = tail(calls)
        return [
            ("eval_points_per_s",
             statistics.median(len(o.times["evaluate"]) / o.stage_s("evaluate")
                               for o in passes), "1/s", n,
             "400 seeded points per pass, median of passes"),
            ("eval_s_p50", statistics.median(calls), "s", len(calls), "per evaluate call"),
            (f"eval_s_p{q:g}" if q else "eval_s_tail", tail_s or float("nan"), "s",
             len(calls), "per evaluate call, highest percentile with >=10 calls beyond"),
            ("profile_fit_s",
             statistics.median(o.stage_s("profile", "fit") for o in passes), "s", n,
             "modulus_profile (5 radii x 65 points) + fit_order_type"),
        ]

    def notes(self) -> list[str]:
        if not self.bad_points:
            return []
        return [f"known_defect reconstruct_check on {N_FLOAT_SAMPLES} float samples "
                f"2^(k/3): {self.bad_points} points deviate by more than "
                f"{RECONSTRUCT_TOL:g} relative, max deviation {self.max_deviation:.3g} "
                "(approx regime stores 53-bit coefficients; the benchmark's reference "
                "confirms the deviation)"]


def _fit(radii, maxima) -> tuple[float, float]:
    """Least-squares slope of ln ln M against ln r, then max ln M / r^rho."""
    used = [(r, m) for r, m in zip(radii, maxima) if m is not None and m > 1.0]
    xs = [math.log(r) for r, _ in used]
    ys = [math.log(math.log(m)) for _, m in used]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    rho = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    return rho, max(math.log(m) / r ** rho for r, m in used)
