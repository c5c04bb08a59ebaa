import numpy as np
import pytest

from damflow import (AssumptionViolation, DamGeometry, DualSolver, EvolutionConfig,
                     InvalidArgument, MalformedCSV, PenaltyConfig, ProblemData, build_grid,
                     classify_boundary, constant_anisotropic_field, hydrostatic_profile,
                     identity_field, layered_field, solve_stationary, solve_unsteady,
                     two_reservoir_head, validate_assumptions)
from damflow.cli import EXIT_VALIDATION, main
from damflow.permeability import grid_sampled_field, load_field_csv, smooth_field


def test_identity_field_report():
    geom = DamGeometry(2.0, 1.0)
    grid = build_grid(geom, 8, 8)
    rep = validate_assumptions(identity_field(geom), grid)
    assert rep.lambda_est == pytest.approx(1.0)
    assert rep.Lambda_est == pytest.approx(1.0)
    assert rep.N_est == pytest.approx(0.0)
    assert rep.div_sign_ok
    assert set(rep.as_dict()) == {"lambda_est", "Lambda_est", "N_est", "div_ae_min",
                                  "div_sign_ok"}


def test_layered_field_analytic_divergence():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 8, 8)
    field = layered_field(a11=1.0, a22_base=1.0, a22_slope=0.5, geometry=geom)
    rep = validate_assumptions(field, grid)
    # nodal differences are exact for an affine a22
    assert rep.div_ae_min == pytest.approx(0.5)
    assert rep.N_est == pytest.approx(0.5)
    assert rep.Lambda_est == pytest.approx(1.5)  # a22 at the top edge
    assert rep.div_sign_ok


def test_downward_decreasing_layer_flagged():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 4, 4)
    rep = validate_assumptions(layered_field(a22_base=2.0, a22_slope=-0.5, geometry=geom), grid)
    assert not rep.div_sign_ok  # div(a e) = -0.5 < 0


def test_non_positive_definite_rejected():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 4, 4)
    bad = constant_anisotropic_field(a11=1.0, a12=2.0, a22=1.0, geometry=geom)
    with pytest.raises(AssumptionViolation):
        validate_assumptions(bad, grid)


def test_nan_tensor_rejected():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 4, 4)
    holey = smooth_field(lambda x1, x2: np.where(x1 > 0.6, np.nan, 1.0),
                         lambda x1, x2: np.zeros(x1.shape), lambda x1, x2: np.ones(x1.shape),
                         geometry=geom)
    with pytest.raises(AssumptionViolation) as exc:
        validate_assumptions(holey, grid)
    assert exc.value.point == (0.75, 0.0)


def test_field_on_another_rectangle_rejected():
    # sampled on the unit square, the field would be clamped to its edge
    # values over the right half of a 2x1 grid
    unit = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    X1, _ = unit.coords()
    field = grid_sampled_field(unit, 1.0 + X1, np.zeros(unit.shape), np.ones(unit.shape))
    assert field(1.5, 0.5)[0] == 2.0
    wide = build_grid(DamGeometry(2.0, 1.0), 8, 4)
    with pytest.raises(InvalidArgument, match=r"\[0,1.0\]x\[0,1.0\].*\[0,2.0\]x\[0,1.0\]"):
        validate_assumptions(field, wide)
    with pytest.raises(InvalidArgument):
        validate_assumptions(identity_field(DamGeometry(1.0, 1.0)), wide)
    # a field without a rectangle is defined everywhere, and an equal
    # rectangle given with other number types is the same rectangle
    assert validate_assumptions(identity_field(), wide).div_sign_ok
    assert validate_assumptions(identity_field(DamGeometry(2, 1)), wide).div_sign_ok


@pytest.mark.parametrize("solver", ["solve_stationary", "solve_unsteady", "DualSolver"])
def test_solvers_reject_a_field_on_another_rectangle(solver):
    unit = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    X1, _ = unit.coords()
    field = grid_sampled_field(unit, 1.0 + X1, np.zeros(unit.shape), np.ones(unit.shape))
    geom = DamGeometry(2.0, 1.0)
    wide = build_grid(geom, 8, 4)
    phi = two_reservoir_head(0.9, 0.2, geom)
    tags = classify_boundary(wide, phi)
    pen = PenaltyConfig(eps=0.1)
    prof = hydrostatic_profile(0.5, wide)
    data = ProblemData(alpha=0.0, T_final=0.1, eps0=0.1, phi=phi, u0=prof.u, chi0=prof.chi)
    calls = {"solve_stationary": lambda: solve_stationary(phi, field, wide, tags, pen),
             "solve_unsteady": lambda: solve_unsteady(
                 data, field, wide, tags, EvolutionConfig(dt=0.1, n_steps=1, penalty=pen)),
             "DualSolver": lambda: DualSolver(field, wide, tags)}
    with pytest.raises(InvalidArgument, match=r"\[0,1.0\]x\[0,1.0\].*\[0,2.0\]x\[0,1.0\]"):
        calls[solver]()


def test_grid_sampled_interpolation_exact_for_bilinear():
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 4, 4)
    X1, X2 = grid.coords()
    a11 = 1.0 + 0.25 * X1 * X2  # bilinear, reproduced exactly
    field = grid_sampled_field(grid, a11, np.zeros(grid.shape), np.ones(grid.shape))
    v11, v12, v22 = field(0.3, 0.7)
    assert v11 == pytest.approx(1.0 + 0.25 * 0.3 * 0.7)
    assert v12 == pytest.approx(0.0)
    assert v22 == pytest.approx(1.0)


def test_load_field_csv_roundtrip(tmp_path):
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 2, 2)
    path = tmp_path / "field.csv"
    lines = ["x1,x2,a11,a12,a22"]
    X1, X2 = grid.coords()
    for j in range(grid.shape[0]):
        for i in range(grid.shape[1]):
            lines.append(f"{X1[j, i]},{X2[j, i]},{1.0 + X2[j, i]},0.0,2.0")
    path.write_text("\n".join(lines) + "\n")
    field = load_field_csv(str(path), grid)
    v11, _, v22 = field(0.5, 0.5)
    assert v11 == pytest.approx(1.5)
    assert v22 == pytest.approx(2.0)


def test_load_field_csv_incomplete_rejected(tmp_path):
    from damflow import InvalidArgument
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, 2, 2)
    path = tmp_path / "partial.csv"
    path.write_text("x1,x2,a11,a12,a22\n0.0,0.0,1.0,0.0,1.0\n")
    with pytest.raises(InvalidArgument):
        load_field_csv(str(path), grid)


FIELD_CSV_CONFIG = """
[grid]
nx = 2
ny = 2

[permeability]
kind = csv
csv = field.csv

[data]
phi = hydrostatic
k = 0.5
"""

# each defect turns the rows of a valid 2x2 permeability CSV into a malformed
# file, paired with the part of the message that names the defect
FIELD_DEFECTS = {
    "off_node_point": (lambda rows: rows + ["0.25,0.5,1,0,1"], "not a grid node"),
    "point_outside": (lambda rows: rows + ["1.5,0,1,0,1"], "not a grid node"),
    "short_row": (lambda rows: rows + ["0.5,0.5,1"], "columns"),
    "non_numeric_cell": (lambda rows: rows[:-1] + ["1,1,1,0,high"], "could not convert"),
    "duplicated_node": (lambda rows: rows + [rows[0]], "appears 2 times"),
    "header_only": (lambda rows: [], "no data rows"),
}


@pytest.mark.parametrize("defect", sorted(FIELD_DEFECTS))
def test_load_field_csv_rejects_malformed(tmp_path, capsys, defect):
    grid = build_grid(DamGeometry(1.0, 1.0), 2, 2)
    X1, X2 = grid.coords()
    rows = [f"{x1},{x2},1.0,0.0,1.0" for x1, x2 in zip(X1.ravel(), X2.ravel())]
    make, message = FIELD_DEFECTS[defect]
    path = tmp_path / "field.csv"
    path.write_text("\n".join(["x1,x2,a11,a12,a22"] + make(rows)) + "\n")
    with pytest.raises(MalformedCSV, match=message) as exc:
        load_field_csv(str(path), grid)
    assert isinstance(exc.value, InvalidArgument)

    config = tmp_path / "run.ini"
    config.write_text(FIELD_CSV_CONFIG)
    assert main(["validate", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_smooth_field_callables():
    geom = DamGeometry(1.0, 1.0)
    field = smooth_field(lambda x1, x2: 1.0 + x1, lambda x1, x2: np.zeros(x1.shape),
                         lambda x1, x2: np.ones(x1.shape), geometry=geom)
    v11, v12, v22 = field(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(v11, [1.0, 2.0])
