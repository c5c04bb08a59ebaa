"""The public surface of damflow, pinned: the names the package exports,
the number of keyword options with a default, and that no module reads the
environment.  A change to any must edit this file, so it is always a
deliberate one (and gets a CHANGES.md line)."""

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil
import types

import damflow

EXPORTS = {
    "AssumptionReport", "AssumptionViolation", "BoundaryTags", "CertificateReport",
    "DamGeometry", "DamflowError", "DualSolver", "EnergySeries", "EvolutionConfig", "Grid",
    "IncompatibleRuns", "InvalidArgument", "InvalidData", "MalformedCSV",
    "NonConvergence", "OrderingReport", "PenaltyConfig", "PermeabilityField",
    "ProblemData", "SolutionField", "StationarySolve", "StepFailure",
    "Trajectory", "build_grid", "check_sandwich",
    "classify_boundary", "constant_anisotropic_field", "dirichlet_values",
    "extract_free_boundary", "grid_sampled_field", "gronwall_monitor",
    "hydrostatic_head", "hydrostatic_profile", "identity_field", "layered_field",
    "load_field_csv", "load_solution_csv", "make_barrier_data", "project_initial",
    "sign_check", "smooth_field", "solve_stationary", "solve_unsteady", "steklov_average",
    "steklov_derivative", "step", "two_reservoir_head", "validate_assumptions",
}

KEYWORD_OPTIONS = 22
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_exported_names():
    # submodules show up as attributes once imported, so they are not counted
    public = {name for name, value in vars(damflow).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS


def _keyword_options():
    """Parameters with a default of every function and method defined in
    damflow, dataclass-generated ``__init__`` and exception classes not
    counted."""
    found = []
    for info in pkgutil.iter_modules(damflow.__path__):
        module = importlib.import_module(f"damflow.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [(name, obj)]
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                functions = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                             if inspect.isfunction(fn)
                             and not (attr == "__init__" and dataclasses.is_dataclass(obj))]
            else:
                continue
            found += [f"{module.__name__}.{qualname}({p.name})"
                      for qualname, fn in functions
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return found


def test_keyword_option_count():
    options = _keyword_options()
    assert len(options) == KEYWORD_OPTIONS, "\n".join(options)


def test_no_module_reads_the_environment():
    """A run is set by its config file and command line alone: no module
    names ``os.environ`` or ``os.getenv``, as an attribute, a name or an
    import."""
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(damflow.__file__), "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        found += [f"{os.path.basename(path)}:{getattr(node, 'lineno', '?')}"
                  for node in ast.walk(tree)
                  if {getattr(node, key, None) for key in ("attr", "id", "name")} & ENVIRONMENT]
    assert not found, "\n".join(found)
