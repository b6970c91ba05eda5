"""The package surface: what ``msgate`` exports and the names the
benchmark's per-layer tracer wraps."""

import ast
import importlib.util
import types
from pathlib import Path

import msgate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(msgate.__file__).resolve().parent

# targets the tracer still lists although the code they named is gone; a
# span on them reads 0, which the per-layer metrics document
REMOVED_TARGETS = {
    # Jacobi eigensolver, replaced by np.linalg.eigh in msgate.modes
    ("msgate.modes", "jacobi_eigh"),
    # single-point error budget, replaced by breakdown_curve's grid-shaped path
    ("msgate.design", "error_breakdown"),
    # golden-section polish of the sensitivity minimum; msgate.design.sensitivity
    # now narrows the minimum on grids of one Chebyshev interpolant
    ("msgate.design", "golden_section_min"),
    # Brent root finder of the balance solve, replaced by safeguarded Newton
    # on the analytic (d theta, d2 theta) in msgate.design.solve_balance
    ("msgate.design", "brent"),
    # Rabi-rate calibration by its own kernel call; msgate.design.design_gate now
    # sets omega0 from the one design-point call it makes at unit rate
    ("msgate.design", "calibrate_omega0"),
}


def test_all_lists_public_names_only():
    assert len(set(msgate.__all__)) == len(msgate.__all__)
    for name in msgate.__all__:
        value = getattr(msgate, name)
        assert not isinstance(value, types.ModuleType), name


def test_every_public_name_has_a_package_caller():
    # a name the package only defines and re-exports serves the tests alone;
    # a def or class statement stores its name as a string, not a Name or
    # Attribute node, and a pulse-type string such as "spline_gaussian" is a
    # Constant, so neither counts as a use
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(msgate.__all__) - used) == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    places = [place for _, places, *_ in tracer.TARGETS + tracer.EVAL_TARGETS for place in places]
    assert REMOVED_TARGETS <= set(places)
    missing = []
    for module_name, path in places:
        if (module_name, path) in REMOVED_TARGETS:
            continue
        try:
            _resolve(module_name, path)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert missing == []
    assert callable(_resolve("msgate.trajectory", "engine_for.cache_info"))
