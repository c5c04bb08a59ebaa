"""INI run configuration: parsing, fail-fast validation, problem building.

The flat-sectioned key-value format keeps sweep directories diff-friendly.
``KEYS`` lists every section and key a config may hold; any other section or
key is a ConfigError.
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

MODES = ("stationary", "unsteady", "certify")

# keys lowercased, as configparser reads them; README's schema table lists
# the same sections and keys
KEYS = {
    "run": ("mode",),
    "geometry": ("l", "k"),
    "grid": ("nx", "ny"),
    "permeability": ("kind", "a11", "a12", "a22", "a22_base", "a22_slope", "csv"),
    "physics": ("alpha",),
    "data": ("phi", "k", "h_left", "h_right", "eps0", "initial", "initial_csv"),
    "penalty": ("eps",),
    "time": ("t", "dt"),
    "solver": ("method", "tol_newton"),
    "output": ("dir", "every_n_steps"),
}


class ConfigError(DamflowError):
    """Unparseable or structurally invalid configuration."""


@dataclass
class RunConfig:
    mode: str
    raw: dict = dc_field(repr=False, default_factory=dict)
    path: str = ""

    def get(self, section, key, default=None):
        return self.raw.get(section, {}).get(key, default)

    def _parse(self, section, key, default, parse, expected):
        v = self.get(section, key, default)
        if v is None:
            return None
        try:
            return parse(v)
        except (KeyError, ValueError):
            raise ConfigError(f"{section}.{key} must be {expected}, got {v!r}") from None

    def getfloat(self, section, key, default=None):
        return self._parse(section, key, default, _finite_float, "a finite number")

    def getint(self, section, key, default=None):
        return self._parse(section, key, default, int, "an integer")


def _finite_float(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def load_config(path):
    """Parse an INI file into a RunConfig; raises ConfigError on any defect."""
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
    mode = raw.get("run", {}).get("mode", "stationary").strip()
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    return RunConfig(mode=mode, raw=raw, path=os.path.abspath(path))


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
    data: object = None
    dt: float = 0.0
    n_steps: int = 0
    method: str = "newton"
    tol_newton: float = TOL_NEWTON
    every_n_steps: int = 1


def build_field(cfg, geometry, grid):
    kind = (cfg.get("permeability", "kind", "identity") or "identity").strip().lower()
    if kind == "identity":
        return perm.identity_field(geometry)
    if kind == "layered":
        return perm.layered_field(a11=cfg.getfloat("permeability", "a11", 1.0),
                                  a22_base=cfg.getfloat("permeability", "a22_base", 1.0),
                                  a22_slope=cfg.getfloat("permeability", "a22_slope", 0.0),
                                  geometry=geometry)
    if kind == "constant":
        return perm.constant_anisotropic_field(a11=cfg.getfloat("permeability", "a11", 1.0),
                                               a12=cfg.getfloat("permeability", "a12", 0.0),
                                               a22=cfg.getfloat("permeability", "a22", 1.0),
                                               geometry=geometry)
    if kind == "csv":
        path = cfg.get("permeability", "csv")
        if not path:
            raise ConfigError("permeability.kind=csv requires permeability.csv")
        path = resolve_path(path, cfg.path)
        if not os.path.exists(path):
            raise ConfigError(f"permeability CSV not found: {path}")
        return perm.load_field_csv(path, grid)
    raise ConfigError(f"unknown permeability kind {kind!r}")


def build_head(cfg, geometry, eps0):
    """The configured boundary head; ``eps0`` is ``[data] eps0``, None when unset."""
    preset = (cfg.get("data", "phi", "hydrostatic") or "hydrostatic").strip().lower()
    if preset == "hydrostatic":
        k = cfg.getfloat("data", "k")
        if k is None:
            raise ConfigError("data.phi=hydrostatic requires data.k")
        return hydrostatic_head(k)
    if preset in ("barrier-lower", "barrier-upper"):
        if eps0 is None:
            raise ConfigError(f"data.phi={preset} requires data.eps0")
        phi0, phi1 = make_barrier_data(eps0, geometry)
        return phi0 if preset == "barrier-lower" else phi1
    if preset == "two-reservoir":
        h_left = cfg.getfloat("data", "h_left")
        h_right = cfg.getfloat("data", "h_right")
        if h_left is None or h_right is None:
            raise ConfigError("data.phi=two-reservoir requires data.h_left and data.h_right")
        return two_reservoir_head(h_left, h_right, geometry)
    raise ConfigError(f"unknown boundary head preset {preset!r}")


def build_initial(cfg, grid, barrier):
    """Initial (u0, chi0) from the configured preset.

    Stationary-based presets solve the penalized barrier problems here, so
    validation catches their failures before the time loop starts.  They
    need ``[data] eps0`` set, not its default.
    """
    preset = (cfg.get("data", "initial", "hydrostatic") or "hydrostatic").strip().lower()
    if preset == "hydrostatic":
        k = cfg.getfloat("data", "k")
        if k is None:
            raise ConfigError("data.initial=hydrostatic requires data.k")
        prof = hydrostatic_profile(k, grid)
        return prof.u, prof.chi
    if preset == "csv":
        path = cfg.get("data", "initial_csv")
        if not path:
            raise ConfigError("data.initial=csv requires data.initial_csv")
        path = resolve_path(path, cfg.path)
        if not os.path.exists(path):
            raise ConfigError(f"initial CSV not found: {path}")
        sol = load_solution_csv(path, grid)
        return sol.u, sol.chi
    if preset in ("stationary-lower", "stationary-upper", "midpoint"):
        if cfg.get("data", "eps0") is None:
            raise ConfigError(f"data.initial={preset} requires data.eps0")
        if preset != "midpoint":
            s = barrier(int(preset == "stationary-upper"))
            return s.v, s.chi
        s0, s1 = barrier(0), barrier(1)
        # midpoint of the order interval; chi need not equal H_eps(u) initially
        return 0.5 * (s0.v + s1.v), 0.5 * (s0.chi + s1.chi)
    raise ConfigError(f"unknown initial preset {preset!r}")


def check_keys(raw):
    """Raise a ConfigError naming every section.key of ``raw`` (a dict of
    sections) that ``KEYS`` does not list; an empty unknown section is named
    as [section]."""
    unknown = [f"[{section}]" for section, entries in raw.items()
               if section not in KEYS and not entries]
    unknown += [f"{section}.{key}" for section, entries in raw.items() for key in entries
                if key not in KEYS.get(section, ())]
    if unknown:
        raise ConfigError(f"unknown config keys {', '.join(unknown)}; see the schema table "
                          "in README")


def pose_problem(cfg):
    """Every part of a problem that takes no solve: geometry, grid, field,
    assumption report, penalty, head, tags, ``eps0`` and the barrier solves
    (lazy), time grid and solver settings."""
    check_keys(cfg.raw)

    # configparser lowercases keys, so L/K arrive as l/k
    geometry = DamGeometry(L=cfg.getfloat("geometry", "l", 1.0),
                           K=cfg.getfloat("geometry", "k", 1.0))
    grid = build_grid(geometry, cfg.getint("grid", "nx", 16), cfg.getint("grid", "ny", 16))
    field = build_field(cfg, geometry, grid)
    report = perm.validate_assumptions(field, grid)
    pen = PenaltyConfig(eps=cfg.getfloat("penalty", "eps", 1e-2),
                        alpha=cfg.getfloat("physics", "alpha", 0.0))
    eps0 = cfg.getfloat("data", "eps0")
    phi = build_head(cfg, geometry, eps0)
    if eps0 is None:
        eps0 = min(0.1, geometry.K / 4.0)
    tags = classify_boundary(grid, phi)

    T = cfg.getfloat("time", "t", 1.0)
    dt = cfg.getfloat("time", "dt", grid.h2)
    if dt <= 0 or not math.isfinite(T / dt):
        raise ConfigError(f"need time.dt > 0 and a finite step count time.t/time.dt, "
                          f"got T={T}, dt={dt}")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ConfigError(f"time.t={T} gives no step of time.dt={dt}")
    if abs(n_steps * dt - T) > 1e-12 * max(T, 1.0):
        raise ConfigError(f"time.t={T} is not an integer multiple of time.dt={dt}")

    method = (cfg.get("solver", "method", "newton") or "newton").strip().lower()
    if method not in ("newton", "picard"):
        raise ConfigError(f"unknown solver method {method!r}")

    tol_newton = cfg.getfloat("solver", "tol_newton", TOL_NEWTON)
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
                   n_steps=n_steps, method=method, tol_newton=tol_newton,
                   every_n_steps=max(cfg.getint("output", "every_n_steps", 1), 1))


def build_problem(cfg):
    """``pose_problem`` plus the initial pair of a run that steps: an
    ``unsteady`` or ``certify`` run gets ``data``; a ``stationary`` run keeps
    ``data`` None and reads no initial-data key."""
    problem = pose_problem(cfg)
    if cfg.mode in ("unsteady", "certify"):
        u0, chi0 = build_initial(cfg, problem.grid, problem.barrier)
        problem.data = ProblemData(alpha=problem.penalty.alpha,
                                   T_final=cfg.getfloat("time", "t", 1.0),
                                   eps0=problem.eps0, phi=problem.phi, u0=u0, chi0=chi0)
    return problem


def output_dir(cfg, override=None):
    root = override or os.environ.get("DAMFLOW_OUT")
    configured = cfg.get("output", "dir", "out")
    if root:
        return os.path.join(root, os.path.basename(configured))
    return resolve_path(configured, cfg.path)


def resolve_path(path, config_path):
    if os.path.isabs(path):
        return path
    base = os.path.dirname(config_path) if config_path else "."
    return os.path.join(base, path)
