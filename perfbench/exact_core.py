"""exact-core: the exact layers in process, with no mpmath evaluation.

Real (order-half) and Gaussian-rational (Riccati source) equations use
ExactScalar differently, so a real-only fast path has to show a gain on one
and no loss on the other.  The Stirling table is fresh on every pass, as it
is in every CLI process.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from fractions import Fraction

from perfbench import checks
from perfbench.bench import Workload

N_REAL = 3000
N_GAUSS = 400
STIRLING_ROWS = 300
TAYLOR_M = 100
N_SAMPLES = 500
N_RECONSTRUCT = 200

# SHA-256 of the exact outputs from fixed inputs (checks.digest_scalars);
# exact outputs must stay bit-identical.
DIGEST_REAL = "589b167c22358b2f2baf5e39cf55038b36fbd79bc517633ade6761f6efd27f81"
DIGEST_GAUSS = "6bb378d6fe587dda6c1cf5b9f6975353ac5f71931c8dff9e461f66e72bb320d3"
DIGEST_TAYLOR = "a757b70a6889f5ffbe860c905db2a57e67e4c4bc2c0e13c00430286ed2d867cd"

GAUSS_ABC = ("4", "6+2i", "3-1i")
GAUSS_FREE = {0: "1", 1: "-1/2+1/3i"}


def generate(seed: int) -> list[int]:
    """500 integer samples, each of exactly 64 bits: values change with the seed, sizes do not."""
    rng = random.Random(f"exact-core:{seed}")
    return [rng.getrandbits(63) | (1 << 63) for _ in range(N_SAMPLES)]


class ExactCore(Workload):
    def inputs_digest(self) -> str:
        return hashlib.sha256(repr((generate(self.seed), GAUSS_ABC, GAUSS_FREE))
                              .encode()).hexdigest()

    def setup(self) -> dict:
        ff = self.ff
        poly = ff.polynomial.poly
        return {
            "samples": generate(self.seed),
            "real_eq": ff.solver.LinearDifferenceEquation(
                "delta", (poly(1), poly(3), poly(6, 4))),
            "real_free": {0: 1, 1: Fraction(-1, 2)},
            "gauss_eq": ff.riccati.riccati_equation(*GAUSS_ABC),
            "gauss_free": {k: ff.exact.as_exact(v) for k, v in GAUSS_FREE.items()},
        }

    def references(self, state) -> None:
        self.chi_real = max(n * math.log(n) / math.lgamma(2 * n + 1)
                            for n in range((N_REAL + 1) // 2, N_REAL + 1))
        self.taylor = checks.order_half_taylor(TAYLOR_M, STIRLING_ROWS)
        self.newton = checks.newton_coeffs(state["samples"])

    def run_pass(self, state, ops) -> dict:
        ff = self.ff
        solver, analysis, series, interp = ff.solver, ff.analysis, ff.series, ff.interp
        out = {}
        rec = ops.call("derive_real", solver.derive_recurrence, state["real_eq"])
        real = out["real"] = ops.call("solve_real", solver.solve_recurrence, rec,
                                      state["real_free"], N_REAL)
        rec = ops.call("derive_gauss", solver.derive_recurrence, state["gauss_eq"])
        gauss = out["gauss"] = ops.call("solve_gauss", solver.solve_recurrence, rec,
                                        state["gauss_free"], N_GAUSS)
        for key, coeffs in (("real", real), ("gauss", gauss)):
            out["chi_" + key] = ops.call("growth", analysis.chi_estimate, coeffs)
            out["cls_" + key] = ops.call("growth", analysis.classify, coeffs)

        def cold_table():
            table = ff.basis.StirlingTable()
            table.ensure(STIRLING_ROWS)
            return table

        table = ops.call("stirling", cold_table)
        out["taylor"] = ops.call(
            "taylor", lambda: series.taylor_from_binomial(
                series.exact_series(real[:STIRLING_ROWS + 1]), TAYLOR_M, table=table))
        newton = out["newton"] = ops.call("newton", interp.newton_series, state["samples"])
        out["reconstruct"] = ops.call("reconstruct", interp.reconstruct_check, newton,
                                      state["samples"][:N_RECONSTRUCT])
        return out

    def check(self, state, out, ops) -> None:
        real, gauss = out["real"], out["gauss"]
        if real is not None:
            ops.expect("solve_real", len(real) == N_REAL + 1
                   and checks.order_half_matches(real), "a_n != (-1)^n/(2n)!")
            ops.expect("solve_real", checks.digest_scalars(real) == DIGEST_REAL,
                   "order-half coefficients changed bits")
        if gauss is not None:
            abc = [(Fraction(v.re), Fraction(v.im))
                   for v in map(self.ff.exact.as_exact, GAUSS_ABC)]
            ops.expect("solve_gauss", len(gauss) == N_GAUSS + 1
                   and [gauss[0], gauss[1]] == [state["gauss_free"][0], state["gauss_free"][1]]
                   and checks.riccati_recurrence_holds(gauss, *abc),
                   "Gaussian coefficients do not satisfy the equation")
            ops.expect("solve_gauss", checks.digest_scalars(gauss) == DIGEST_GAUSS,
                   "Gaussian coefficients changed bits")
            chi_gauss = max(n * math.log(n) / -_log_abs(gauss[n])
                            for n in range((N_GAUSS + 1) // 2, N_GAUSS + 1))
            ops.expect("growth_gauss", out["chi_gauss"] is not None
                   and checks.rel_close(out["chi_gauss"].value, chi_gauss, 1e-12),
                   "chi_estimate differs on the Gaussian sequence")
        ops.expect("growth_real", out["chi_real"] is not None
               and checks.rel_close(out["chi_real"].value, self.chi_real, 1e-9),
               "chi_estimate differs from n ln n / lgamma(2n+1)")
        ops.expect("cls_real", out["cls_real"] is not None and out["cls_real"].kind == "entire",
               "order-1/2 solution not classified entire")
        if gauss is not None:
            # chi >= 0.9, so the verdict rests on the first argmax of |a_n| n!
            peak = _first_peak(gauss)
            cls = out["cls_gauss"]
            ops.expect("cls_gauss", chi_gauss >= 0.9 and cls is not None
                   and cls.kind == "right-half-plane" and cls.k_index == peak
                   and checks.rel_close(cls.k_bound, _abs_times_fact(gauss, peak), 1e-12),
                   "Gaussian verdict differs from the first peak of |a_n| n!")
        tc = out["taylor"]
        ops.expect("taylor", tc is not None and not tc.chi_flagged
               and [c.re for c in tc.coeffs] == self.taylor
               and all(not c.im for c in tc.coeffs)
               and checks.digest_scalars(tc.coeffs) == DIGEST_TAYLOR,
               "Taylor coefficients differ from sum a_k s(k, n)")
        newton = out["newton"]
        ops.expect("newton", newton is not None and newton.regime == "exact"
               and [c.re for c in newton.coeffs] == self.newton
               and all(not c.im for c in newton.coeffs),
               "Newton coefficients differ from the integer difference triangle")
        rep = out["reconstruct"]
        ops.expect("reconstruct", rep is not None and len(rep.deviations) == N_RECONSTRUCT
               and rep.max_deviation == 0.0, "exact reconstruction deviates")

    def summary(self, passes) -> list:
        def med(f):
            return statistics.median(f(ops) for ops in passes)
        n = len(passes)
        return [
            ("solve_coeffs_per_s",
             med(lambda o: (N_REAL + 1) / o.stage_s("derive_real", "solve_real")),
             "1/s", n, "order-half, derive + solve to N=3000, median of passes"),
            ("solve_gauss_coeffs_per_s",
             med(lambda o: (N_GAUSS + 1) / o.stage_s("derive_gauss", "solve_gauss")),
             "1/s", n, "Gaussian Riccati source, N=400, median of passes"),
            ("growth_s", med(lambda o: o.stage_s("growth")), "s", n,
             "chi_estimate + classify on both sequences, median of passes"),
            ("taylor_convert_s", med(lambda o: o.stage_s("stirling", "taylor")), "s", n,
             "fresh table ensure(300) + taylor_from_binomial(m_max=100), median of passes"),
            ("interp_samples_per_s",
             med(lambda o: N_SAMPLES / o.stage_s("newton", "reconstruct")), "1/s", n,
             "500 integer samples through newton_series + reconstruct_check(200)"),
        ]


def _first_peak(coeffs) -> int:
    best, best_n, fact = None, 0, 1
    for n, c in enumerate(coeffs):
        fact *= n or 1
        sq = (c.re * c.re + c.im * c.im) * fact * fact
        if best is None or sq > best:
            best, best_n = sq, n
    return best_n


def _abs_times_fact(coeffs, n) -> float:
    c = coeffs[n]
    return math.sqrt(float(c.re * c.re + c.im * c.im)) * math.factorial(n)


def _log_abs(c) -> float:
    sq = c.re * c.re + c.im * c.im
    return 0.5 * (math.log(sq.numerator) - math.log(sq.denominator))
