import io
import os
import stat
import tracemalloc
import zipfile

import numpy as np
import pytest

from damflow import DamGeometry, InvalidArgument, InvalidData, MalformedCSV, build_grid
from damflow.cli import EXIT_VALIDATION, main
from damflow.io import (atomic_open, atomic_write_text, read_json, snapshot_filename,
                        write_json, write_solution_csv, write_trajectory_store)
from damflow.problem_data import SolutionField, load_solution_csv

GOLDEN = b"""i,j,x1,x2,u,chi
0,0,0,0,0,1
1,0,0.14999999999999999,0,0.10000000000000001,0.5
2,0,0.29999999999999999,0,0.33333333333333331,0.20000000000000001
0,1,0,0.34999999999999998,0.66666666666666663,0
1,1,0.14999999999999999,0.34999999999999998,0,1
2,1,0.29999999999999999,0.34999999999999998,1e-300,0.14285714285714285
0,2,0,0.69999999999999996,3.1415926535897931,0
1,2,0.14999999999999999,0.69999999999999996,0.25,0.99999999999999989
2,2,0.29999999999999999,0.69999999999999996,0,1
"""

INITIAL_CSV_CONFIG = """
[run]
mode = unsteady

[grid]
nx = 2
ny = 2

[data]
phi = hydrostatic
k = 0.5
initial = csv
initial_csv = initial.csv
"""

# each defect turns the rows of a valid 2x2 node dump into a malformed file,
# paired with the part of the message that names the defect
SOLUTION_DEFECTS = {
    "negative_index": (lambda rows: rows + ["-1,0,0,0,0.5,1"], "not a grid node"),
    "out_of_range_index": (lambda rows: rows + ["3,0,1.5,0,0.5,1"], "not a grid node"),
    "non_integer_index": (lambda rows: rows + ["0.5,0,0.25,0,0.5,1"], "not a grid node"),
    "short_row": (lambda rows: rows + ["2,2"], "columns"),
    "non_numeric_cell": (lambda rows: rows[:-1] + ["2,2,1,1,wet,1"], "could not convert"),
    "five_columns": (lambda rows: [row.rsplit(",", 1)[0] for row in rows], "has 5 columns"),
    "nan_cell": (lambda rows: rows[:-1] + ["2,2,1,1,nan,1"], "not a finite number"),
    "inf_cell": (lambda rows: rows[:-1] + ["2,2,1,1,0.5,inf"], "not a finite number"),
    "duplicated_node": (lambda rows: rows + [rows[0]], "appears 2 times"),
    "header_only": (lambda rows: [], "no data rows"),
}


def test_atomic_write_creates_directories_and_no_temp_files(tmp_path):
    target = tmp_path / "a" / "b" / "file.txt"
    atomic_write_text(str(target), "hello")
    assert target.read_text() == "hello"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_atomic_write_failure_reraises_and_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("damflow.io.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(str(tmp_path / "file.txt"), "hello")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o027], ids=lambda m: f"umask_{m:03o}")
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    # the temporary file is made 0o600; the artifact must not keep that mode
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "text.txt"), "hello")
        with atomic_open(str(tmp_path / "bytes.bin"), "wb") as f:
            f.write(b"hello")
        write_json(str(tmp_path / "obj.json"), {"a": 1})
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("hello")
    finally:
        os.umask(old)
    assert (tmp_path / "bytes.bin").read_bytes() == b"hello"
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(("text.txt", "bytes.bin", "obj.json", "plain.txt"),
                                  0o666 & ~umask)


def test_negative_initial_pressure_exit_3(tmp_path, capsys):
    grid = build_grid(DamGeometry(1.0, 1.0), 2, 2)
    u = np.full(grid.shape, 0.5)
    u[1, 1] = -0.25
    write_solution_csv(str(tmp_path / "initial.csv"), grid,
                       SolutionField(u=u, chi=np.ones(grid.shape), time=0.0))
    config = tmp_path / "run.ini"
    config.write_text(INITIAL_CSV_CONFIG)
    assert main(["validate", str(config)]) == EXIT_VALIDATION
    assert "u0 >= 0" in capsys.readouterr().err


def test_json_roundtrip(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"b": 1, "a": [1.5, None]})
    assert read_json(str(path)) == {"b": 1, "a": [1.5, None]}
    # keys are sorted so repeated writes are byte-identical
    text1 = path.read_text()
    write_json(str(path), {"a": [1.5, None], "b": 1})
    assert path.read_text() == text1


def test_solution_csv_roundtrip_bit_exact(tmp_path):
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 3)
    rng = np.random.default_rng(7)
    sol = SolutionField(u=rng.uniform(0, 1, grid.shape),
                        chi=rng.uniform(0, 1, grid.shape), time=0.25)
    path = tmp_path / "sol.csv"
    write_solution_csv(str(path), grid, sol)
    back = load_solution_csv(str(path), grid)
    np.testing.assert_array_equal(back.u, sol.u)
    np.testing.assert_array_equal(back.chi, sol.chi)
    assert back.time == 0.0  # a node dump holds no time


def test_solution_csv_golden_bytes(tmp_path):
    """The node-dump contract: header, j-outer rows, 17 significant digits."""
    grid = build_grid(DamGeometry(0.3, 0.7), 2, 2)
    sol = SolutionField(u=[[0.0, 0.1, 1 / 3], [2 / 3, 0.0, 1e-300], [np.pi, 0.25, 0.0]],
                        chi=[[1.0, 0.5, 0.2], [0.0, 1.0, 1 / 7], [0.0, 1 - 1e-16, 1.0]])
    path = tmp_path / "sol.csv"
    write_solution_csv(str(path), grid, sol)
    assert path.read_bytes() == GOLDEN


def test_solution_csv_node_columns_follow_the_grid(tmp_path):
    """Grids with one node count but other sides write their own x1, x2."""
    grids = [build_grid(DamGeometry(L, K), 4, 3) for L, K in ((1.0, 1.0), (2.0, 0.5), (1.0, 1.0))]
    for k, grid in enumerate(grids):
        X1, X2 = grid.coords()
        sol = SolutionField(u=X1 + X2, chi=np.zeros(grid.shape))
        path = tmp_path / f"sol{k}.csv"
        write_solution_csv(str(path), grid, sol)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        j, i = (a.ravel() for a in np.indices(grid.shape))
        np.testing.assert_array_equal(rows[:, 0:2], np.column_stack((i, j)))
        np.testing.assert_array_equal(rows[:, 2], i * grid.h1)
        np.testing.assert_array_equal(rows[:, 3], j * grid.h2)
        np.testing.assert_array_equal(rows[:, 4], sol.u.ravel())


@pytest.mark.parametrize("values", ["special", "integers"])
def test_solution_csv_matches_rows_formatted_one_at_a_time(tmp_path, values):
    """An odd, non-square grid: the dump is the header plus one
    ``%d,%d,%.17g,%.17g,%.17g,%.17g`` row per node, j outer and i inner."""
    grid = build_grid(DamGeometry(2.0, 1.0), 7, 5)
    if values == "special":
        rng = np.random.default_rng(11)
        u, chi = rng.uniform(0, 1, grid.shape), rng.uniform(0, 1, grid.shape)
        u.flat[:4] = [-0.0, 1e-300, 1 - 1e-16, 0.0]
        chi.flat[-3:] = [1 - 1e-16, -0.0, 1e-300]
    else:
        u = np.arange(grid.n_nodes).reshape(grid.shape)
        chi = np.ones(grid.shape, dtype=int)
    path = tmp_path / "sol.csv"
    write_solution_csv(str(path), grid, SolutionField(u=u, chi=chi))
    expected = ["i,j,x1,x2,u,chi"]
    for j in range(grid.ny + 1):
        for i in range(grid.nx + 1):
            row = (i, j, i * grid.h1, j * grid.h2, float(u[j, i]), float(chi[j, i]))
            expected.append("%d,%d,%.17g,%.17g,%.17g,%.17g" % row)
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("defect", sorted(SOLUTION_DEFECTS))
def test_load_solution_csv_rejects_malformed(tmp_path, capsys, defect):
    grid = build_grid(DamGeometry(1.0, 1.0), 2, 2)
    rows = [f"{i},{j},{i * grid.h1},{j * grid.h2},0.5,1"
            for j in range(grid.ny + 1) for i in range(grid.nx + 1)]
    make, message = SOLUTION_DEFECTS[defect]
    path = tmp_path / "initial.csv"
    path.write_text("\n".join(["i,j,x1,x2,u,chi"] + make(rows)) + "\n")
    with pytest.raises(MalformedCSV, match=message) as exc:
        load_solution_csv(str(path), grid)
    assert isinstance(exc.value, InvalidData)

    config = tmp_path / "run.ini"
    config.write_text(INITIAL_CSV_CONFIG)
    assert main(["validate", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_repeated_writes_identical(tmp_path):
    grid = build_grid(DamGeometry(1.0, 1.0), 3, 3)
    sol = SolutionField(u=np.full(grid.shape, 1.0 / 3.0),
                        chi=np.full(grid.shape, 2.0 / 3.0), time=0.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_solution_csv(str(p1), grid, sol)
    write_solution_csv(str(p2), grid, sol)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_filename_zero_padded():
    assert snapshot_filename(0) == "snapshot_00000.csv"
    assert snapshot_filename(123) == "snapshot_00123.csv"


def _random_snapshots(grid, n):
    rng = np.random.default_rng(1)
    return [SolutionField(u=rng.random(grid.shape), chi=rng.random(grid.shape), time=0.1 * k)
            for k in range(n)]


def test_trajectory_store_members_are_the_bytes_of_savez(tmp_path):
    grid = build_grid(DamGeometry(1.0, 2.0), 5, 3)
    snaps = _random_snapshots(grid, 4)
    path = tmp_path / "trajectory.npz"
    write_trajectory_store(path, grid, snaps)
    buf = io.BytesIO()
    np.savez(buf, u=np.stack([s.u for s in snaps]), chi=np.stack([s.chi for s in snaps]))
    with zipfile.ZipFile(path) as written, zipfile.ZipFile(buf) as expected:
        assert written.namelist() == expected.namelist() == ["u.npy", "chi.npy"]
        for name in expected.namelist():
            assert written.getinfo(name).compress_type == zipfile.ZIP_STORED
            assert written.read(name) == expected.read(name)


def test_trajectory_store_is_written_one_snapshot_at_a_time(tmp_path):
    grid = build_grid(DamGeometry(1.0, 1.0), 32, 32)
    snaps = _random_snapshots(grid, 100)
    stacked = len(snaps) * grid.n_nodes * 8
    tracemalloc.start()
    try:
        write_trajectory_store(tmp_path / "trajectory.npz", grid, snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stacked / 4


@pytest.mark.parametrize("name", ["u", "chi"])
def test_trajectory_store_rejects_a_snapshot_off_the_grid(tmp_path, name):
    grid = build_grid(DamGeometry(1.0, 1.0), 4, 2)
    snaps = _random_snapshots(grid, 2)
    # SolutionField refuses u and chi of unequal shapes, so one is set afterwards
    setattr(snaps[1], name, getattr(snaps[1], name).T)
    path = tmp_path / "trajectory.npz"
    with pytest.raises(InvalidArgument, match=fr"snapshot {name} of shape \(5, 3\)"):
        write_trajectory_store(path, grid, snaps)
    assert not path.exists()
