"""cli-tour: the README CLI tour, one `python -m fallfact.cli` process per command.

The only workload that pays interpreter start-up, `import fallfact`, JSON
I/O and cold caches (Stirling table, mpmath contexts) on every command, as
CLI users do.  Its inputs are the README's own, so its outputs can be
checked against the values the README prints; the seed does not change them.

The traced run replays the same commands in process through
fallfact.cli.main, with an empty Stirling table per command as a fresh
process would have, so the tracer can see inside each command.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from perfbench import checks
from perfbench.bench import Workload, run_child

TOUR = (
    ("seed_examples", ["seed-examples", "--dir", "equations"]),
    ("solve_order_half", ["solve", "--equation", "equations/order-half.json",
                          "--free", "0=1", "--free", "1=-1/2", "--n-terms", "300",
                          "--out", "sol.json"]),
    ("eval", ["eval", "--series", "sol.json", "--at", "2.25", "--at", "1+2i",
              "--out", "values.csv"]),
    ("analyze_fit", ["analyze", "--series", "sol.json", "--fit",
                     "--radii", "16", "64", "256", "1024"]),
    ("polygon", ["polygon", "--equation", "equations/order-half.json"]),
    ("riccati_coefficient", ["riccati", "coefficient", "--a", "4", "--b", "6", "--c", "3"]),
    ("riccati_verify", ["riccati", "verify", "--a", "4", "--b", "6", "--c", "3",
                        "--free", "0=1", "--free", "1=-1/2", "--precision-bits", "256"]),
    ("interp", ["interp", "--values", "1", "2", "4", "8", "16", "--check",
                "--out", "interp.json"]),
    ("convert_shift", ["convert", "--equation", "equations/factorial.json", "--to", "shift"]),
    ("solve_geometric", ["solve", "--equation", "equations/geometric.json",
                         "--free", "0=1", "--n-terms", "100", "--out", "sol_geometric.json"]),
    ("continue_eval", ["continue-eval", "--equation", "equations/geometric.json",
                       "--series", "sol_geometric.json", "--at", "-2"]),
    ("convert_taylor", ["convert", "--series", "sol.json", "--to", "taylor",
                        "--m-max", "40", "--k-cut", "150", "--out", "taylor.json"]),
)
LIGHT = ("seed_examples", "polygon", "riccati_coefficient", "convert_shift")

# what the README prints
SEED_FILES = {
    "geometric.json": [["-1/2"], ["1"]],
    "factorial.json": [["1", "-1"], ["1"]],
    "order-half.json": [["1"], ["3"], ["6", "4"]],
}
SOLVE_HEAD = ["recurrence order 2, generic from n = 0, 0 prefix constraint(s)",
              "q[0](n) = 1", "q[1](n) = 4n^2+7n+3", "q[2](n) = 4n^3+18n^2+26n+12"]
ANALYZE = {"chi_estimate": 0.531198096427, "M(16)": 30.0456239934,
           "M(64)": 1664.537815, "M(256)": 4998420.29206, "M(1024)": 4.45778004605e+13,
           "rho_fit": 0.5339089548, "tau_fit": 0.805212197877}
POLYGON = ["points (0,-1) (1,-1) (2,0)", "hull (0,-1) (2,0)", "slopes 1/2",
           "candidate_orders 1/2"]
RICCATI_A = "A(z) = (16z+23)/(64z^2+80z+9)"
MAX_RESIDUAL = 1.237e-21
SHIFT_FORM = {"format_version": 1, "form": "shift", "coeffs": [["0", "-1"], ["1"]]}
INTERP_COEFFS = ["1", "1", "1/2", "1/6", "1/24"]
Y_MINUS_2 = 4 / 9  # (3/2)^z at z = -2

# SHA-256 of the coefficient strings (checks.digest_strings); exact outputs
# must stay bit-identical.
DIGEST_SOL = "71e8f33faba892ee7393cd417311c32003162b4cb6d053c599cb5dbcb023ddff"
DIGEST_GEOMETRIC = "5e67763c684ae8415b8af59f84e664ce4ce106f9bde3c68ccc2542d5f84ade49"
DIGEST_TAYLOR = "daae635cf5f10caa9b21ad25f7fc4efd94fe1a64ef7d3c6a7073ad5de2b3aafd"

CONTINUE_LINE = re.compile(r"^y\((.+)\) = \((.+)\)\s+steps=(\d+) (\S+)$")


class CliTour(Workload):
    in_children = True

    def inputs_digest(self) -> str:
        return hashlib.sha256(repr(TOUR).encode()).hexdigest()

    def setup(self) -> dict:
        return {"dir": Path(tempfile.mkdtemp(prefix="cli-tour-", dir=self.out_dir)),
                "passes": 0}

    def teardown(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    def references(self, state) -> None:
        fact, self.sol = 1, []
        for n in range(301):
            if n:
                fact *= (2 * n - 1) * (2 * n)
            self.sol.append(checks.order_half_coeff(n, fact))
        self.geometric = [Fraction(1, 2 ** n * math.factorial(n)) for n in range(101)]
        self.taylor = checks.order_half_taylor(40, 150)
        self.ref_eval = checks.RefSeries(self.sol, 256)

    def _pass_dir(self, state) -> Path:
        state["passes"] += 1
        d = state["dir"] / f"pass{state['passes']}"
        d.mkdir()
        return d

    def run_pass(self, state, ops) -> dict:
        """Each command in its own interpreter, as a user runs the tour."""
        where = self._pass_dir(state)

        def command(argv):
            with ops.child():
                proc = run_child([sys.executable, "-m", "fallfact.cli", *argv], cwd=where)
            if proc.returncode:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout

        out = {stage: ops.call(stage, command, argv) for stage, argv in TOUR}
        out["dir"] = where
        return out

    def replay(self, state, ops) -> dict:
        """The same commands in process, through fallfact.cli.main."""
        where = self._pass_dir(state)
        ff = self.ff

        def command(argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            saved = ff.series.default_table
            ff.series.default_table = ff.basis.StirlingTable  # empty, as in a new process
            try:
                with contextlib.chdir(where), contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = ff.cli.main(argv)
            finally:
                ff.series.default_table = saved
            if rc:
                raise RuntimeError(f"exit {rc}: {stderr.getvalue().strip()}")
            return stdout.getvalue()

        out = {stage: ops.call(stage, command, argv) for stage, argv in TOUR}
        out["dir"] = where
        return out

    # -- output checks -------------------------------------------------------------

    def check(self, state, out, ops) -> None:
        where = out["dir"]
        for stage, _ in TOUR:
            if out[stage] is None:
                continue
            try:
                problem = getattr(self, "_check_" + stage)(out[stage], where)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                ops.fail(stage, problem)

    def _check_seed_examples(self, stdout, where):
        names = [Path(p).name for p in stdout.split()]
        if names != list(SEED_FILES):
            return f"listed {names}"
        for name, coeffs in SEED_FILES.items():
            data = json.loads((where / "equations" / name).read_text())
            if data != {"format_version": 1, "form": "delta", "coeffs": coeffs}:
                return f"{name} holds {data}"

    def _check_solve_order_half(self, stdout, where):
        lines = stdout.splitlines()
        if lines[:4] != SOLVE_HEAD or "classification entire" not in lines:
            return "recurrence or classification differs from the README"
        if not _close_line(lines, "chi_estimate", ANALYZE["chi_estimate"]):
            return "chi_estimate differs from the README"
        coeffs = json.loads((where / "sol.json").read_text())["coeffs"]
        if [Fraction(c) for c in coeffs] != self.sol:
            return "coefficients are not (-1)^n/(2n)!"
        if checks.digest_strings(coeffs) != DIGEST_SOL:
            return "sol.json coefficient strings changed"

    def _check_eval(self, stdout, where):
        with open(where / "values.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for z, row in zip((2.25, 1 + 2j), rows):
            got = complex(float(row["val_re"]), float(row["val_im"]))
            if row["converged"] != "1" or not self.ref_eval.matches(got, z):
                return f"value at {z} is {got}, off the 256-bit reference"
        if len(rows) != 2:
            return f"{len(rows)} rows"

    def _check_analyze_fit(self, stdout, where):
        lines = stdout.splitlines()
        if "chi_window 150 300" not in lines or "classification entire" not in lines:
            return "growth verdict differs from the README"
        for key, want in ANALYZE.items():
            if not _close_line(lines, key, want):
                return f"{key} differs from the README"

    def _check_polygon(self, stdout, where):
        if stdout.splitlines() != POLYGON:
            return "polygon differs from the README"

    def _check_riccati_coefficient(self, stdout, where):
        if stdout.strip() != RICCATI_A:
            return "A(z) differs from the README"

    def _check_riccati_verify(self, stdout, where):
        lines = stdout.splitlines()
        residuals = [float(l.rsplit(" ", 1)[1]) for l in lines if l.startswith("residual at")]
        if lines[0] != RICCATI_A or len(residuals) != 6 or max(residuals) > 1e-8:
            return "Riccati residuals missing or above 1e-8"
        if not _close_line(lines, "max_residual", MAX_RESIDUAL, 1e-3):
            return "max_residual differs from the README"

    def _check_interp(self, stdout, where):
        coeffs = json.loads((where / "interp.json").read_text())["coeffs"]
        if stdout.strip() != "max_deviation 0.000e+00" or coeffs != INTERP_COEFFS:
            return "interpolation differs from the README"

    def _check_convert_shift(self, stdout, where):
        if json.loads(stdout) != SHIFT_FORM:
            return "shift form differs from the README"

    def _check_solve_geometric(self, stdout, where):
        coeffs = json.loads((where / "sol_geometric.json").read_text())["coeffs"]
        if [Fraction(c) for c in coeffs] != self.geometric:
            return "coefficients are not (1/2)^n/n!"
        if checks.digest_strings(coeffs) != DIGEST_GEOMETRIC:
            return "sol_geometric.json coefficient strings changed"

    def _check_continue_eval(self, stdout, where):
        m = CONTINUE_LINE.match(stdout.strip())
        if not m or m.group(4) != "ok" or \
                abs(complex(m.group(2)) - Y_MINUS_2) > 1e-12 * Y_MINUS_2:
            return f"y(-2) line {stdout.strip()!r} is not (3/2)^-2"

    def _check_convert_taylor(self, stdout, where):
        data = json.loads((where / "taylor.json").read_text())
        if data["chi_flagged"] or [Fraction(c) for c in data["coeffs"]] != self.taylor:
            return "Taylor coefficients differ from sum a_k s(k, n)"
        if checks.digest_strings(data["coeffs"]) != DIGEST_TAYLOR:
            return "taylor.json coefficient strings changed"

    # -- report ----------------------------------------------------------------------

    def summary(self, passes) -> list:
        light = [t for ops in passes for s in LIGHT for t in ops.times.get(s, ())]
        return [
            ("cmd_startup_s", statistics.median(light), "s", len(light),
             "median of seed-examples, polygon, riccati coefficient, convert --to shift"),
            ("analyze_fit_s",
             statistics.median(t for ops in passes for t in ops.times["analyze_fit"]),
             "s", len(passes), "analyze --fit --radii 16 64 256 1024, median of passes"),
        ]


def _close_line(lines, key, want, tol=1e-9) -> bool:
    """A line `key value` or `key = value` whose value is within tol of want."""
    for line in lines:
        if line.startswith(key + " "):
            return checks.rel_close(float(line.rsplit(" ", 1)[1]), want, tol)
    return False
