"""The public API of the fallfact package, pinned name by name.

One name a line, so that a name added to or removed from fallfact.__all__
shows as a one-line diff here; list each such change in CHANGES.md.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fallfact

PUBLIC = (
    "AcceleratedResult",
    "BinomialSeries",
    "Classification",
    "CoefficientRecurrence",
    "ContinuationResult",
    "DeterminacyError",
    "ENTIRE",
    "EvaluationOverflowError",
    "EvaluationResult",
    "ExactScalar",
    "FallfactError",
    "InputFormatError",
    "InterpolationReport",
    "LinearDifferenceEquation",
    "MathematicalObstruction",
    "ModulusProfile",
    "NewtonPolygon",
    "NumericalFailure",
    "OrderTypeFit",
    "PoleError",
    "Polynomial",
    "RIGHT_HALF_PLANE",
    "RationalFunction",
    "RiccatiInstance",
    "SingularRecurrenceError",
    "StirlingTable",
    "TaylorCoefficients",
    "UNKNOWN",
    "VerificationReport",
    "analysis",
    "approx_series",
    "as_exact",
    "basis",
    "binomial_from_taylor",
    "binomial_to_poly",
    "candidate_orders",
    "chi_estimate",
    "classify",
    "continuation_eval",
    "default_table",
    "delta",
    "derive_recurrence",
    "errors",
    "evaluate",
    "evaluate_accelerated",
    "evaluate_exact",
    "exact",
    "exact_series",
    "fit_order_type",
    "formal_solve",
    "format_poly",
    "g_step_check",
    "interp",
    "linear_combine",
    "modulus_profile",
    "mul_by_poly",
    "mul_by_z",
    "newton_polygon",
    "newton_series",
    "poly",
    "poly_to_binomial",
    "polynomial",
    "reconstruct_check",
    "riccati",
    "riccati_coefficient",
    "riccati_equation",
    "riccati_instance",
    "riccati_transform",
    "series",
    "shift",
    "solve_recurrence",
    "solver",
    "taylor_from_binomial",
    "to_delta_form",
    "to_shift_form",
    "verify_riccati",
    "verify_solution",
    "verify_stirling_bounds",
)


def test_public_names_are_pinned():
    assert tuple(sorted(fallfact.__all__)) == PUBLIC


def _fresh_python(script: str) -> str:
    src = str(Path(fallfact.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_every_name_is_its_home_modules_object():
    for name in fallfact.__all__:
        home = fallfact._HOME.get(name)
        if home is None:  # a submodule
            assert getattr(fallfact, name) is importlib.import_module(f"fallfact.{name}")
            continue
        value = getattr(fallfact, name)
        assert value is getattr(importlib.import_module(f"fallfact.{home}"), name), name
        # a class or function is listed under the module that defines it
        assert getattr(value, "__module__", f"fallfact.{home}") == f"fallfact.{home}", name
    assert set(fallfact.__all__) <= set(dir(fallfact))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        fallfact.frobnicate
    assert not hasattr(fallfact, "cli_main")


def test_names_resolve_in_a_fresh_interpreter():
    # submodules resolve before anything imports them: basis first, as series imports it
    assert _fresh_python(
        "import sys, fallfact\n"
        "assert 'fallfact.basis' not in sys.modules\n"
        "print(fallfact.basis.StirlingTable.__name__)\n"
        "assert 'fallfact.series' not in sys.modules\n"
        "print(fallfact.series.default_table.__name__)\n") == "StirlingTable\ndefault_table"
    assert _fresh_python(
        "from fallfact import *\n"
        "import fallfact\n"
        "print(*[n for n in fallfact.__all__ if n not in globals()])\n") == ""


def test_every_private_module_name_is_used():
    # a module-level _name (def, class or assignment; dunders aside) that
    # occurs only where it is defined is dead code
    sources = {path.name: path.read_text() for path in Path(fallfact.__file__).parent.glob("*.py")}
    text = "\n".join(sources.values())
    unused = []
    for name, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{d}" for d in defined if d.startswith("_") and not d.endswith("__")
                       and len(re.findall(rf"\b{re.escape(d)}\b", text)) < 2]
    assert not unused
