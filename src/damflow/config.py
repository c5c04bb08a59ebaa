"""INI run configuration: parsing, fail-fast validation, problem building.

The flat-sectioned key-value format keeps sweep directories diff-friendly.
``KEYS`` is the schema: every section and key a config may hold, with the
parser of its value, what a value must be and its default.  Any other section
or key, and any value its key cannot take, is a ConfigError.
"""

import configparser
import functools
import math
import os
from dataclasses import dataclass, field as dc_field

from . import permeability as perm
from .errors import DamflowError
from .geometry import DamGeometry, build_grid, classify_boundary
from .nonlinear import TOL_NEWTON
from .penalty import PenaltyConfig
from .problem_data import (ProblemData, hydrostatic_head, hydrostatic_profile,
                           load_solution_csv, make_barrier_data, two_reservoir_head)


def _finite_float(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def _one_of(*choices):
    """A choice key's entry: a case-insensitive parser, and the first choice as default."""
    def parse(text):
        value = text.strip().lower()
        if value not in choices:
            raise ValueError(value)
        return value
    return parse, f"one of {', '.join(choices)}", choices[0]


NUMBER = (_finite_float, "a finite number")
INTEGER = (int, "an integer")

# section -> key -> (parser, what a value must be, default), keys lowercased as
# configparser reads them, as in README's schema table.  Default None: time.dt
# is h2, data.eps0 min(0.1, K/4), and a preset reading another needs it set.
KEYS = {
    "run": {"mode": _one_of("stationary", "unsteady", "certify")},
    "geometry": {"l": (*NUMBER, 1.0), "k": (*NUMBER, 1.0)},
    "grid": {"nx": (*INTEGER, 16), "ny": (*INTEGER, 16)},
    "permeability": {"kind": _one_of("identity", "layered", "constant", "csv"),
                     "a11": (*NUMBER, 1.0), "a12": (*NUMBER, 0.0), "a22": (*NUMBER, 1.0),
                     "a22_base": (*NUMBER, 1.0), "a22_slope": (*NUMBER, 0.0),
                     "csv": (str, "a path", None)},
    "physics": {"alpha": (*NUMBER, 0.0)},
    "data": {"phi": _one_of("hydrostatic", "barrier-lower", "barrier-upper", "two-reservoir"),
             "k": (*NUMBER, None), "h_left": (*NUMBER, None), "h_right": (*NUMBER, None),
             "eps0": (*NUMBER, None),
             "initial": _one_of("hydrostatic", "stationary-lower", "stationary-upper",
                                "midpoint", "csv"),
             "initial_csv": (str, "a path", None)},
    "penalty": {"eps": (*NUMBER, 1e-2)},
    "time": {"t": (*NUMBER, 1.0), "dt": (*NUMBER, None)},
    "solver": {"method": _one_of("newton", "picard"), "tol_newton": (*NUMBER, TOL_NEWTON)},
    "output": {"dir": (str, "a path", "out"), "every_n_steps": (*INTEGER, 1)},
}


class ConfigError(DamflowError):
    """Unparseable or structurally invalid configuration."""


@dataclass
class RunConfig:
    """A config file's ``raw`` strings; ``values`` parses them on first read."""

    raw: dict = dc_field(repr=False)
    path: str

    @functools.cached_property
    def values(self):
        return parse_values(self.raw)

    @property
    def mode(self):
        return self.values["run"]["mode"]


def _parse(raw, section, key):
    """``raw``'s value of section.key parsed by ``KEYS``, or its default when unset."""
    parse, expected, default = KEYS[section][key]
    if key not in raw.get(section, {}):
        return default
    text = raw[section][key]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be {expected}, got {text!r}") from None


def parse_values(raw):
    """Every key of ``KEYS`` with its value in ``raw`` (a dict of sections)
    parsed, or its default.  A ConfigError names every section.key not in
    ``KEYS`` (an empty unknown section as [section]), or else the first bad value."""
    unknown = [f"[{section}]" for section, entries in raw.items()
               if section not in KEYS and not entries]
    unknown += [f"{section}.{key}" for section, entries in raw.items() for key in entries
                if key not in KEYS.get(section, ())]
    if unknown:
        raise ConfigError(f"unknown config keys {', '.join(unknown)}; see the schema table "
                          "in README")
    return {section: {key: _parse(raw, section, key) for key in keys}
            for section, keys in KEYS.items()}


def load_config(path):
    """Read an INI file into a RunConfig; ConfigError if unreadable or of unknown mode."""
    # no default section: a [DEFAULT] section is read, and rejected, like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        read = parser.read(path)
        # values are interpolated here, so a lone "%" fails in this block
        raw = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    _parse(raw, "run", "mode")
    return RunConfig(raw=raw, path=os.path.abspath(path))


@dataclass
class Problem:
    """Everything a pipeline needs, built and validated up front.

    ``eps0`` is the strip height of the barrier heads; ``barrier(k)`` is the
    lower (k = 0) or upper (k = 1) barrier's stationary solve, made on first
    use and then kept.  ``build_problem`` adds the initial ``data`` of a run
    that steps.
    """

    geometry: DamGeometry
    grid: object
    field: object
    tags: object
    phi: object
    penalty: PenaltyConfig
    assumption_report: object
    eps0: float
    barrier: object
    dt: float
    n_steps: int
    method: str
    tol_newton: float
    every_n_steps: int
    data: object = None


def _needed(cfg, section, key, by):
    """The parsed value of section.key, which the setting ``by`` needs set."""
    value = cfg.values[section][key]
    if value is None:
        raise ConfigError(f"{by} requires {section}.{key}")
    return value


def _csv_file(cfg, section, key, by):
    """The existing file section.key names, relative to the config's directory."""
    path = resolve_path(_needed(cfg, section, key, by), cfg.path)
    if not os.path.isfile(path):
        raise ConfigError(f"{section}.{key} names no file: {path}")
    return path


def build_field(cfg, geometry, grid):
    p = cfg.values["permeability"]
    if p["kind"] == "layered":
        return perm.layered_field(a11=p["a11"], a22_base=p["a22_base"],
                                  a22_slope=p["a22_slope"], geometry=geometry)
    if p["kind"] == "constant":
        return perm.constant_anisotropic_field(a11=p["a11"], a12=p["a12"], a22=p["a22"],
                                               geometry=geometry)
    if p["kind"] == "csv":
        return perm.load_field_csv(_csv_file(cfg, "permeability", "csv", "permeability.kind=csv"),
                                   grid)
    return perm.identity_field(geometry)


def build_head(cfg, geometry):
    """The configured boundary head ``[data] phi``."""
    preset = cfg.values["data"]["phi"]
    by = f"data.phi={preset}"
    if preset == "hydrostatic":
        return hydrostatic_head(_needed(cfg, "data", "k", by))
    if preset == "two-reservoir":
        return two_reservoir_head(_needed(cfg, "data", "h_left", by),
                                  _needed(cfg, "data", "h_right", by), geometry)
    return make_barrier_data(_needed(cfg, "data", "eps0", by), geometry)[preset == "barrier-upper"]


def build_initial(cfg, grid, barrier):
    """Initial (u0, chi0) from the configured preset.

    Stationary-based presets solve the penalized barrier problems here, so
    validation catches their failures before the time loop starts.
    """
    preset = cfg.values["data"]["initial"]
    by = f"data.initial={preset}"
    if preset == "hydrostatic":
        prof = hydrostatic_profile(_needed(cfg, "data", "k", by), grid)
        return prof.u, prof.chi
    if preset == "csv":
        sol = load_solution_csv(_csv_file(cfg, "data", "initial_csv", by), grid)
        return sol.u, sol.chi
    _needed(cfg, "data", "eps0", by)
    if preset != "midpoint":
        s = barrier(int(preset == "stationary-upper"))
        return s.v, s.chi
    s0, s1 = barrier(0), barrier(1)
    # midpoint of the order interval; chi need not equal H_eps(u) initially
    return 0.5 * (s0.v + s1.v), 0.5 * (s0.chi + s1.chi)


def pose_problem(cfg):
    """Every part of a problem that takes no solve: geometry, grid, field,
    assumption report, penalty, head, tags, ``eps0`` and the barrier solves
    (lazy), time grid and solver settings."""
    v = cfg.values
    # configparser lowercases keys, so L/K arrive as l/k
    geometry = DamGeometry(L=v["geometry"]["l"], K=v["geometry"]["k"])
    grid = build_grid(geometry, v["grid"]["nx"], v["grid"]["ny"])
    field = build_field(cfg, geometry, grid)
    report = perm.validate_assumptions(field, grid)
    pen = PenaltyConfig(eps=v["penalty"]["eps"], alpha=v["physics"]["alpha"])
    phi = build_head(cfg, geometry)
    eps0 = v["data"]["eps0"]
    if eps0 is None:
        eps0 = min(0.1, geometry.K / 4.0)
    tags = classify_boundary(grid, phi)

    T, dt = v["time"]["t"], v["time"]["dt"]
    if dt is None:
        dt = grid.h2
    if dt <= 0 or not math.isfinite(T / dt):
        raise ConfigError(f"need time.dt > 0 and a finite step count time.t/time.dt, "
                          f"got T={T}, dt={dt}")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ConfigError(f"time.t={T} gives no step of time.dt={dt}")
    if abs(n_steps * dt - T) > 1e-12 * max(T, 1.0):
        raise ConfigError(f"time.t={T} is not an integer multiple of time.dt={dt}")

    tol_newton = v["solver"]["tol_newton"]
    if tol_newton <= 0:
        raise ConfigError(f"solver.tol_newton must be positive, got {tol_newton}")

    @functools.cache
    def barrier(k):
        # looked up at call time, so a patched stationary.solve_stationary is seen
        from .stationary import solve_stationary
        return solve_stationary(make_barrier_data(eps0, geometry)[k], field, grid, tags, pen,
                                tol_newton=tol_newton)

    return Problem(geometry=geometry, grid=grid, field=field, tags=tags, phi=phi, penalty=pen,
                   assumption_report=report, eps0=eps0, barrier=barrier, dt=dt,
                   n_steps=n_steps, method=v["solver"]["method"], tol_newton=tol_newton,
                   every_n_steps=max(v["output"]["every_n_steps"], 1))


def build_problem(cfg):
    """``pose_problem`` plus the initial pair of a run that steps: an
    ``unsteady`` or ``certify`` run gets ``data``; a ``stationary`` run keeps
    ``data`` None and reads no initial-data key."""
    problem = pose_problem(cfg)
    if cfg.mode in ("unsteady", "certify"):
        u0, chi0 = build_initial(cfg, problem.grid, problem.barrier)
        problem.data = ProblemData(alpha=problem.penalty.alpha, T_final=cfg.values["time"]["t"],
                                   eps0=problem.eps0, phi=problem.phi, u0=u0, chi0=chi0)
    return problem


def output_dir(cfg, override=None):
    root = override or os.environ.get("DAMFLOW_OUT")
    configured = cfg.values["output"]["dir"]
    if root:
        return os.path.join(root, os.path.basename(configured))
    return resolve_path(configured, cfg.path)


def resolve_path(path, config_path):
    # an absolute path is kept as it is
    return os.path.join(os.path.dirname(config_path), path)
