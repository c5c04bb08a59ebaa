import numpy as np
import pytest

from damflow import (DamGeometry, InvalidArgument, build_grid, classify_boundary,
                     hydrostatic_head, identity_field)
from damflow.certify import (DualSolver, check_sandwich, extract_free_boundary,
                             gronwall_monitor, sign_check, steklov_average,
                             steklov_derivative)
from damflow.evolution import Trajectory
from damflow.problem_data import SolutionField, hydrostatic_profile


def _setup(n=16):
    geom = DamGeometry(1.0, 1.0)
    grid = build_grid(geom, n, n)
    tags = classify_boundary(grid, hydrostatic_head(0.5))
    return grid, tags, identity_field(geom)


def test_dual_energy_identity():
    grid, tags, field = _setup()
    X1, X2 = grid.coords()
    eta = np.sin(np.pi * X1) * X2
    dual = DualSolver(field, grid, tags)
    v = dual.solve(eta)
    # the discrete weak form makes integral a grad v . grad v = integral eta v
    assert dual.energy(v) == pytest.approx(dual.source_pairing(eta, v), rel=1e-12)
    # homogeneous data on the whole pervious boundary
    assert np.max(np.abs(v[tags.dirichlet_mask])) == 0.0


def test_dual_manufactured_convergence_order_two():
    geom = DamGeometry(1.0, 1.0)
    errs = []
    for n in (8, 16, 32):
        grid = build_grid(geom, n, n)
        tags = classify_boundary(grid, hydrostatic_head(0.5))
        X1, X2 = grid.coords()
        vstar = np.sin(np.pi * X1) * np.cos(np.pi * X2 / 2.0)
        eta = (np.pi ** 2 + (np.pi / 2.0) ** 2) * vstar
        v = DualSolver(identity_field(geom), grid, tags).solve(eta)
        err = v - vstar
        errs.append(np.sqrt(np.sum(err ** 2)) / n)
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_steklov_average_exact_for_linear_series():
    times = np.linspace(0.0, 1.0, 11)
    values = 2.0 * times + 1.0
    new_t, avg = steklov_average(times, values, h_avg=0.2)
    # mean of a linear function over [t, t+h] is its value at t + h/2
    np.testing.assert_allclose(avg, 2.0 * (new_t + 0.1) + 1.0, atol=1e-14)
    assert new_t[-1] <= 1.0 - 0.2 + 1e-12

    const = np.full_like(times, 3.5)
    _, avg_c = steklov_average(times, const, h_avg=0.3)
    np.testing.assert_allclose(avg_c, 3.5, atol=1e-14)


def test_steklov_derivative_matches_difference_quotient():
    times = np.linspace(0.0, 1.0, 6)
    values = np.array([0.0, 1.0, 0.5, 2.0, 1.5, 3.0])
    h = 0.4
    new_t, dv = steklov_derivative(times, values, h)
    for t, d in zip(new_t, dv):
        lo = np.interp(t, times, values)
        hi = np.interp(t + h, times, values)
        assert d == pytest.approx((hi - lo) / h, abs=1e-13)


@pytest.mark.parametrize("h", [0.0, -0.2, 1.5, float("nan")])
@pytest.mark.parametrize("operator", [steklov_average, steklov_derivative])
def test_steklov_window_outside_the_horizon_rejected(operator, h):
    times = np.linspace(0.0, 1.0, 6)
    with pytest.raises(InvalidArgument):
        operator(times, 2.0 * times, h)


@pytest.mark.parametrize("times", [[0.0, 1.0, 0.5, 1.5], [0.0, 0.5, 0.5, 1.5]])
@pytest.mark.parametrize("operator", [steklov_average, steklov_derivative])
def test_steklov_times_that_do_not_strictly_increase_rejected(operator, times):
    with pytest.raises(InvalidArgument, match="strictly increase"):
        operator(times, [1.0, 2.0, 3.0, 4.0], 0.25)


@pytest.mark.parametrize("n_values", [4, 7])
@pytest.mark.parametrize("operator", [steklov_average, steklov_derivative])
def test_steklov_values_of_the_wrong_length_rejected(operator, n_values):
    with pytest.raises(InvalidArgument, match="for 5 times"):
        operator(np.linspace(0.0, 1.0, 5), np.arange(float(n_values)), 0.25)


def test_steklov_operators_on_a_field_at_irregular_times():
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.05, 0.4, 9))
    values = rng.standard_normal((times.size, 3, 2))
    h = 0.7
    new_t, avg = steklov_average(times, values, h)
    _, der = steklov_derivative(times, values, h)
    assert avg.shape == der.shape == (new_t.size, 3, 2) and new_t.size > 1

    def g(t, c):
        return np.interp(t, times, values[:, c[0], c[1]])

    for n, t in enumerate(new_t):
        # breakpoints of the window [t, t + h]: its ends and the times inside
        knots = np.concatenate([[t], times[(times > t) & (times < t + h)], [t + h]])
        for c in np.ndindex(3, 2):
            trapezoid = np.sum(0.5 * (g(knots[1:], c) + g(knots[:-1], c)) * np.diff(knots))
            assert avg[n][c] == pytest.approx(trapezoid / h, abs=1e-13)
            assert der[n][c] == pytest.approx((g(t + h, c) - g(t, c)) / h, abs=1e-13)


def _trajectory(us, chis):
    return Trajectory(snapshots=[SolutionField(u=np.array(u), chi=np.array(chi), time=0.1 * k)
                                 for k, (u, chi) in enumerate(zip(us, chis))])


def test_sign_check_is_the_least_cross_product_over_snapshots():
    # w * (chi1 - chi2) is (0.5, 0.5) at the first snapshot, (0, -3) at the second
    t1 = _trajectory([[1.0, -2.0], [0.0, 1.0]], [[0.5, -0.25], [0.0, -3.0]])
    t2 = _trajectory([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert sign_check(t1, t2) == pytest.approx(-3.0)
    assert sign_check(t2, t1) == pytest.approx(-3.0)
    assert sign_check(t1, t1) == 0.0


def test_sign_check_rejects_trajectories_of_unequal_length():
    two = _trajectory([[1.0], [0.0]], [[1.0], [0.0]])
    one = _trajectory([[0.0]], [[1.0]])
    for pair in ((two, one), (one, two)):
        with pytest.raises(InvalidArgument, match="different lengths"):
            sign_check(*pair)


def test_check_sandwich_reports_violations():
    u = np.array([0.5, 0.9])
    rep = check_sandwich(u, np.array([0.0, 1.0]), np.array([1.0, 1.5]), tol=1e-3)
    assert rep.max_below_lower == pytest.approx(0.1)
    assert rep.max_above_upper == 0.0
    assert not rep.passed
    assert check_sandwich(u, u - 1e-4, u + 1e-4, tol=1e-3).passed


def test_extract_free_boundary_hydrostatic():
    grid, tags, field = _setup()
    prof = hydrostatic_profile(0.5, grid)
    heights, status = extract_free_boundary(prof, grid)
    assert all(s == "interface" for s in status)
    np.testing.assert_allclose(heights, 0.5, atol=grid.h2)


def test_extract_free_boundary_wet_and_dry_columns():
    grid, tags, field = _setup(4)
    chi = np.ones(grid.shape)
    chi[:, -1] = 0.0
    sol = SolutionField(u=np.zeros(grid.shape), chi=chi, time=0.0)
    heights, status = extract_free_boundary(sol, grid)
    assert status[0] == "wet" and heights[0] == grid.geometry.K
    assert status[-1] == "dry" and heights[-1] == 0.0


def _zeros(grid, times):
    """A trajectory of zero snapshots at ``times``."""
    return Trajectory(snapshots=[SolutionField(u=np.zeros(grid.shape), chi=np.zeros(grid.shape),
                                               time=t) for t in times])


def test_gronwall_monitor_alignment_guard():
    grid, tags, field = _setup(4)
    t1 = _zeros(grid, [0.0, 0.1])
    for times, message in (([0.0], "different lengths"), ([0.0, 0.2], "different times")):
        t2 = _zeros(grid, times)
        with pytest.raises(InvalidArgument, match=message):
            gronwall_monitor(t1, t2, field, grid, tags, alpha=0.0)


def test_gronwall_monitor_rejects_empty_or_unordered_times():
    grid, tags, field = _setup(4)
    for times in ([], [0.0, 0.1, 0.1], [0.0, 0.2, 0.1]):
        traj = _zeros(grid, times)
        with pytest.raises(InvalidArgument, match="strictly increase"):
            gronwall_monitor(traj, traj, field, grid, tags, alpha=0.0)


def test_gronwall_monitor_identical_trajectories():
    grid, tags, field = _setup(8)
    prof = hydrostatic_profile(0.5, grid)
    snaps = [SolutionField(u=prof.u, chi=prof.chi, time=t) for t in (0.0, 0.1, 0.2)]
    traj = Trajectory(snapshots=snaps)
    series, report = gronwall_monitor(traj, traj, field, grid, tags, alpha=0.3)
    assert report.sup_E == 0.0
    assert report.passed
    assert report.sign_min == 0.0
    np.testing.assert_array_equal(series.F, 0.0)


def test_gronwall_monitor_flags_large_difference():
    grid, tags, field = _setup(8)
    lo = hydrostatic_profile(0.2, grid)
    hi = hydrostatic_profile(0.8, grid)
    t_lo = Trajectory(snapshots=[
        SolutionField(u=lo.u, chi=lo.chi, time=0.0),
        SolutionField(u=lo.u, chi=lo.chi, time=0.1)])
    t_hi = Trajectory(snapshots=[
        SolutionField(u=hi.u, chi=hi.chi, time=0.0),
        SolutionField(u=hi.u, chi=hi.chi, time=0.1)])
    _, report = gronwall_monitor(t_lo, t_hi, field, grid, tags, alpha=0.3)
    assert report.sup_E > report.tol * report.scale
    assert not report.passed


def test_gronwall_monitor_rejects_snapshots_off_the_grid():
    grid, tags, field = _setup(8)
    small = hydrostatic_profile(0.5, build_grid(grid.geometry, 4, 4))
    traj = Trajectory(snapshots=[small])
    with pytest.raises(InvalidArgument, match=r"shape \(5, 5\).*\(9, 9\)"):
        gronwall_monitor(traj, traj, field, grid, tags, alpha=0.3)


@pytest.mark.parametrize("n_tags", [4, 16])
def test_dual_solver_and_monitor_reject_tags_off_the_grid(n_tags):
    grid, _, field = _setup(8)
    _, tags, _ = _setup(n_tags)
    prof = hydrostatic_profile(0.5, grid)
    traj = Trajectory(snapshots=[SolutionField(u=prof.u, chi=prof.chi, time=t)
                                 for t in (0.0, 0.1)])
    shapes = fr"tags of shape \({n_tags + 1}, {n_tags + 1}\).*\(9, 9\)"
    with pytest.raises(InvalidArgument, match=shapes):
        DualSolver(field, grid, tags)
    with pytest.raises(InvalidArgument, match=shapes):
        gronwall_monitor(traj, traj, field, grid, tags, alpha=0.3)


@pytest.mark.parametrize("method, off_grid", [("solve", 0), ("energy", 0),
                                              ("source_pairing", 0), ("source_pairing", 1)])
def test_dual_solver_rejects_inputs_off_the_grid(method, off_grid):
    grid, tags, field = _setup(4)
    args = [np.ones(grid.shape) for _ in range(2 if method == "source_pairing" else 1)]
    args[off_grid] = np.ones((9, 9))
    with pytest.raises(InvalidArgument, match=r"of shape \(9, 9\) is not on the grid"):
        getattr(DualSolver(field, grid, tags), method)(*args)


@pytest.mark.parametrize("n_solution", [4, 16])
def test_extract_free_boundary_rejects_a_solution_off_the_grid(n_solution):
    grid, _, _ = _setup(8)
    prof = hydrostatic_profile(0.5, build_grid(grid.geometry, n_solution, n_solution))
    with pytest.raises(InvalidArgument, match=fr"solution of shape \({n_solution + 1}, "
                                              fr"{n_solution + 1}\).*\(9, 9\)"):
        extract_free_boundary(prof, grid)


def test_extract_free_boundary_takes_the_topmost_crossing():
    grid, tags, field = _setup(6)
    chi = np.zeros(grid.shape)
    # crossings in cells 0 and 1, then a rise to a flat run at the level
    chi[:, 0] = [1.0, 0.2, 0.8, 0.5, 0.5, 0.5, 0.5]
    # one crossing below a flat run at the level that ends at the top
    chi[:, 1] = [1.0, 1.0, 0.75, 0.5, 0.5, 0.5, 0.5]
    # a run at the level that rises away from it: the top of the run
    chi[:, 2] = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1.0]
    # a column at the level throughout has no crossing and is wet
    chi[:, 3] = 0.5
    chi[:, 4] = [1.0, 1.0, 1.0, 1.0, 0.6, 0.2, 0.0]
    heights, status = extract_free_boundary(SolutionField(u=chi, chi=chi), grid)
    x2 = np.arange(grid.ny + 1) * grid.h2
    # in cell 2 chi - level goes from 0.3 (or 0.25) to 0: the crossing is x2_3
    assert heights[0] == heights[1] == x2[3]
    assert heights[2] == x2[5]
    assert status[3] == "wet" and heights[3] == grid.geometry.K
    assert heights[4] == pytest.approx(x2[4] + 0.25 * grid.h2, abs=1e-15)
    assert status[:3] == ["interface"] * 3 and status[4] == "interface"
    assert status[5:] == ["dry"] * 2 and list(heights[5:]) == [0.0] * 2
