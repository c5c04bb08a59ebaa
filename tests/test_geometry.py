import numpy as np
import pytest

from damflow import (DamGeometry, Grid, InvalidArgument, InvalidData, build_grid,
                     classify_boundary, dirichlet_values, hydrostatic_head)


def test_geometry_rejects_nonpositive_sides():
    with pytest.raises(InvalidArgument):
        DamGeometry(L=0.0, K=1.0)
    with pytest.raises(InvalidArgument):
        DamGeometry(L=2.0, K=-1.0)


@pytest.mark.parametrize("L, K", [(float("inf"), 1.0), (2.0, float("inf")), (float("nan"), 1.0)])
def test_geometry_rejects_sides_that_are_not_finite(L, K):
    with pytest.raises(InvalidArgument, match="finite and positive"):
        DamGeometry(L=L, K=K)


@pytest.mark.parametrize("nx, ny", [(1, 4), (4, 1), (1.9, 4)])
def test_grid_needs_two_cells_per_axis(nx, ny):
    with pytest.raises(InvalidArgument):
        build_grid(DamGeometry(1.0, 1.0), nx, ny)


@pytest.mark.parametrize("nx, ny", [(2.9, 4.5), (2.5, 3), (4, 3.5), ("a", 3), (None, 3), ([3], 3)])
def test_grid_needs_whole_cell_counts(nx, ny):
    with pytest.raises(InvalidArgument, match="whole number"):
        build_grid(DamGeometry(1.0, 1.0), nx, ny)
    with pytest.raises(InvalidArgument, match="whole number"):
        Grid(DamGeometry(1.0, 1.0), nx, ny)


def test_integral_cell_counts_are_stored_as_ints():
    grid = Grid(DamGeometry(1.0, 1.0), 4.0, np.int64(3))
    assert (grid.nx, grid.ny) == (4, 3) and type(grid.nx) is int and type(grid.ny) is int
    assert type(grid.n_nodes) is int and grid.n_nodes == 20


def test_grid_spacing_and_shape():
    grid = build_grid(DamGeometry(2.0, 1.0), nx=8, ny=4)
    assert grid.h1 == pytest.approx(0.25)
    assert grid.h2 == pytest.approx(0.25)
    assert grid.shape == (5, 9)
    assert grid.n_nodes == 45
    X1, X2 = grid.coords()
    assert X1[0, -1] == pytest.approx(2.0)
    assert X2[-1, 0] == pytest.approx(1.0)


def test_flatten_orders_nodes_row_by_row():
    grid = build_grid(DamGeometry(1.0, 1.0), 3, 5)
    X1, X2 = grid.coords()
    flat = grid.flatten(X1 / grid.h1 + 10.0 * X2 / grid.h2)
    # node (i, j) sits at flat index j (nx + 1) + i
    j, i = np.divmod(np.arange(grid.n_nodes), grid.nx + 1)
    np.testing.assert_allclose(flat, i + 10.0 * j, rtol=0, atol=1e-12)
    assert np.array_equal(flat.reshape(grid.shape), X1 / grid.h1 + 10.0 * X2 / grid.h2)


def test_bottom_row_is_impervious_including_corners():
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    mask = classify_boundary(grid, hydrostatic_head(0.5)).dirichlet_mask
    # the corners belong to the bottom, not to the lateral sides
    assert not mask[0, :].any()


def test_dirichlet_mask_pins_the_rest_of_the_boundary_read_only():
    grid = build_grid(DamGeometry(2.0, 1.0), 6, 4)
    mask = classify_boundary(grid, hydrostatic_head(0.3)).dirichlet_mask
    assert mask.dtype == bool and mask.shape == grid.shape
    # the top row and both sides above the bottom row, wet or dry alike
    assert mask[-1, :].all() and mask[1:, 0].all() and mask[1:, -1].all()
    assert not mask[1:-1, 1:-1].any()
    with pytest.raises(ValueError):
        mask[1, 1] = True


def test_negative_head_rejected():
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    with pytest.raises(InvalidData):
        classify_boundary(grid, lambda x1, x2: x2 - 2.0)


def test_dirichlet_values_zero_off_boundary():
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    phi = hydrostatic_head(0.5)
    tags = classify_boundary(grid, phi)
    vals = dirichlet_values(grid, tags, phi)
    assert vals[2, 2] == 0.0
    assert vals[1, 0] == pytest.approx(0.25)


def test_dirichlet_values_reject_negative_heads_and_foreign_tags():
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 4)
    phi = hydrostatic_head(0.5)
    tags = classify_boundary(grid, phi)
    with pytest.raises(InvalidData, match="boundary head -0.05 .* is not a finite number >= 0"):
        dirichlet_values(grid, tags, lambda x1, x2: -0.05)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidData, match=f"boundary head {bad}"):
            dirichlet_values(grid, tags, lambda x1, x2: bad if x1 == 0.0 else 0.5 - x2)
        with pytest.raises(InvalidData):
            classify_boundary(grid, lambda x1, x2: bad if x1 == 0.0 else 0.5 - x2)
    fine = classify_boundary(build_grid(DamGeometry(1.0, 1.0), 8, 8), phi)
    with pytest.raises(InvalidArgument, match=r"\(9, 9\).*\(5, 5\)"):
        dirichlet_values(grid, fine, phi)
