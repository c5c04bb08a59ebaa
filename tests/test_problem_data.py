import numpy as np
import pytest

from damflow import (DamGeometry, InvalidArgument, InvalidData, ProblemData,
                     build_grid, hydrostatic_head, hydrostatic_profile,
                     make_barrier_data, two_reservoir_head)
from damflow.problem_data import SolutionField


def _grid():
    return build_grid(DamGeometry(1.0, 1.0), 8, 8)


def test_problem_data_validation():
    u0 = np.zeros((3, 3))
    chi0 = np.zeros((3, 3))
    with pytest.raises(InvalidData):
        ProblemData(alpha=-1.0, T_final=1.0, eps0=0.1, phi=hydrostatic_head(0.5),
                    u0=u0, chi0=chi0)
    with pytest.raises(InvalidData):
        ProblemData(alpha=0.0, T_final=0.0, eps0=0.1, phi=hydrostatic_head(0.5),
                    u0=u0, chi0=chi0)
    with pytest.raises(InvalidData):
        ProblemData(alpha=0.0, T_final=1.0, eps0=0.1, phi=hydrostatic_head(0.5),
                    u0=u0, chi0=chi0 + 2.0)


@pytest.mark.parametrize("entry, value", [("u0", np.nan), ("u0", np.inf), ("chi0", np.nan)])
def test_problem_data_rejects_a_non_finite_initial_pair(entry, value):
    pair = {"u0": np.zeros((3, 3)), "chi0": np.zeros((3, 3))}
    pair[entry][1, 1] = value
    with pytest.raises(InvalidData, match="initial"):
        ProblemData(alpha=0.0, T_final=1.0, eps0=0.1, phi=hydrostatic_head(0.5), **pair)


def test_barrier_heads():
    geom = DamGeometry(2.0, 1.0)
    phi0, phi1 = make_barrier_data(0.2, geom)
    assert phi0(0.0, 0.1) == pytest.approx(0.1)
    assert phi0(0.0, 0.5) == 0.0
    assert phi1(2.0, 0.3) == pytest.approx(0.5)
    assert phi1(1.0, 1.0) == 0.0  # dry on the top edge
    with pytest.raises(InvalidArgument):
        make_barrier_data(0.6, geom)


def test_two_reservoir_head_dry_top():
    geom = DamGeometry(2.0, 1.0)
    phi = two_reservoir_head(0.8, 0.3, geom)
    assert phi(0.0, 0.5) == pytest.approx(0.3)
    assert phi(2.0, 0.1) == pytest.approx(0.2)
    assert phi(1.0, 1.0) == 0.0
    with pytest.raises(InvalidArgument):
        two_reservoir_head(-0.1, 0.3, geom)


def test_hydrostatic_profile_open_wet_set():
    grid = _grid()
    prof = hydrostatic_profile(0.5, grid)
    _, X2 = grid.coords()
    np.testing.assert_allclose(prof.u, np.maximum(0.5 - X2, 0.0))
    # the node exactly at the water table counts as dry
    j = int(round(0.5 / grid.h2))
    assert prof.chi[j, 0] == 0.0
    assert prof.chi[j - 1, 0] == 1.0
    with pytest.raises(InvalidArgument):
        hydrostatic_profile(1.5, grid)


def test_complementarity_residual():
    u = np.array([[0.2, 0.0], [0.1, 0.3]])
    chi = np.array([[1.0, 0.0], [0.5, 1.0]])
    f = SolutionField(u=u, chi=chi, time=0.0)
    assert f.complementarity_residual() == pytest.approx(0.05)


def test_solution_field_rejects_mismatched_shapes():
    with pytest.raises(InvalidArgument, match="shape mismatch"):
        SolutionField(u=np.zeros((3, 3)), chi=np.zeros((3, 4)))
