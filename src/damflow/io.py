"""On-disk artifacts: node-dump and permeability CSVs, JSON summaries and
the binary trajectory store.

A node dump has the header ``i,j,x1,x2,u,chi`` and one row per grid node, j
outer and i inner, with 17 significant digits so repeated runs round-trip
bit-exactly.  A permeability CSV has the header ``x1,x2,a11,a12,a22`` and one
row per grid node, in any order.  Both are read by one numpy row reader that
skips the header, ``#`` lines and blank lines; every defect of the file raises
``MalformedCSV``.  Every artifact is written atomically.  The ``i, j, x1, x2``
cells of a node dump depend on the grid alone, so they are formatted once per
grid into a template that each dump fills with u and chi.  A trajectory
store is an uncompressed ``.npz`` of float64 arrays ``u`` and ``chi``, one
nodal slice per stored snapshot, so it reads back bit-exactly; it is written
slice by slice.
"""

import contextlib
import functools
import io
import json
import os
import re
import tempfile
import warnings
import zipfile

import numpy as np

from .errors import MalformedCSV

SOLUTION_HEADER = "i,j,x1,x2,u,chi"
FIELD_HEADER = "x1,x2,a11,a12,a22"
# a permeability point must lie within this fraction of the mesh width of a node
NODE_TOL = 1e-6


def _umask():
    """The process umask; reading it means setting it, so it is set back at once."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def atomic_open(path, mode):
    """Open a temporary file beside ``path`` in ``mode`` (``"w"`` or
    ``"wb"``) and rename it into place when the block ends, so interrupted
    runs never leave partial files; a block that raises leaves no file.
    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, not the 0o600 of the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode) as f:
            os.fchmod(f.fileno(), 0o666 & ~_umask())
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    with atomic_open(path, "w") as f:
        f.write(text)


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def _format_rows(header, row_format, columns):
    """``header`` plus one ``row_format`` line per entry of the columns."""
    cells = np.column_stack(columns)
    return header + "\n" + ((row_format + "\n") * cells.shape[0]) % tuple(cells.ravel().tolist())


@functools.lru_cache(maxsize=8)
def _node_dump_template(grid):
    """A node dump of ``grid`` with its ``i, j, x1, x2`` cells filled in and
    ``%.17g,%.17g`` left on each row for u and chi; built on a grid's first
    write and kept for the next ones."""
    j, i = (a.ravel() for a in np.indices(grid.shape))
    return _format_rows(SOLUTION_HEADER, "%d,%d,%.17g,%.17g,%%.17g,%%.17g",
                        (i, j, i * grid.h1, j * grid.h2))


def write_solution_csv(path, grid, sol):
    """Node dump ``i,j,x1,x2,u,chi``."""
    values = np.column_stack((np.ravel(sol.u), np.ravel(sol.chi)))
    atomic_write_text(path, _node_dump_template(grid) % tuple(values.ravel().tolist()))


def write_energy_csv(path, series):
    atomic_write_text(path, _format_rows("t,E,F", "%.17g,%.17g,%.17g",
                                         (series.times, series.E, series.F)))


def _read_rows(path, header):
    """The data rows of a numeric CSV as a float array, one column per name
    in ``header``.

    Skips the first line that reads ``header``, ``#`` lines and blank lines.
    Raises MalformedCSV on a row with too few or too many cells, a cell that
    is not a finite number, or a file without data rows.
    """
    try:
        with open(path) as f:
            text = re.sub(rf"^[ \t]*{re.escape(header)}[ \t]*$", "", f.read(), count=1,
                          flags=re.M)
        with warnings.catch_warnings():
            # a file without data rows is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        # drop numpy's advice on `usecols`, which names no option of ours
        raise MalformedCSV(f"CSV {path}: {str(exc).partition(';')[0]}") from None
    if rows.shape[0] == 0:
        raise MalformedCSV(f"CSV {path} has no data rows")
    if rows.shape[1] != header.count(",") + 1:
        raise MalformedCSV(f"CSV {path} has {rows.shape[1]} columns, expected {header}")
    if not np.all(np.isfinite(rows)):
        raise MalformedCSV(f"CSV {path} has a cell that is not a finite number")
    return rows


def _on_nodes(path, grid, s, t, tol, values):
    """Scatter the rows' ``values`` to the nodes (i, j) = (s, t) rounded.

    Every row must lie within ``tol`` of a node and every node must get
    exactly one row.  Returns one nodal array per column of ``values``.
    """
    i, j = np.rint(s), np.rint(t)
    bad = ((np.abs(s - i) > tol) | (np.abs(t - j) > tol)
           | (i < 0) | (i > grid.nx) | (j < 0) | (j > grid.ny))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise MalformedCSV(f"CSV {path}: data row {k + 1} is not a grid node "
                           f"(node coordinates i = {s[k]:.6g}, j = {t[k]:.6g})")
    flat = (j * (grid.nx + 1) + i).astype(np.intp)
    count = np.bincount(flat, minlength=grid.n_nodes)
    if np.any(count > 1):
        k = int(np.argmax(count > 1))
        raise MalformedCSV(f"CSV {path}: node (i, j) = ({k % (grid.nx + 1)}, "
                           f"{k // (grid.nx + 1)}) appears {count[k]} times")
    if np.any(count == 0):
        raise MalformedCSV(f"CSV {path} does not cover every grid node")
    nodal = np.empty((values.shape[1], grid.n_nodes))
    nodal[:, flat] = values.T
    return tuple(col.reshape(grid.shape) for col in nodal)


def read_solution_csv(path, grid):
    """Nodal (u, chi) of a node dump ``i,j,x1,x2,u,chi``; x1 and x2 are not read."""
    rows = _read_rows(path, SOLUTION_HEADER)
    return _on_nodes(path, grid, rows[:, 0], rows[:, 1], 0.0, rows[:, 4:])


def read_field_csv(path, grid):
    """Nodal (a11, a12, a22) of a permeability CSV ``x1,x2,a11,a12,a22``."""
    rows = _read_rows(path, FIELD_HEADER)
    return _on_nodes(path, grid, rows[:, 0] / grid.h1, rows[:, 1] / grid.h2, NODE_TOL,
                     rows[:, 2:])


def snapshot_filename(step_index):
    return f"snapshot_{step_index:05d}.csv"


def write_trajectory_store(path, grid, snapshots):
    """Store the snapshots' u and chi as uncompressed float64 arrays ``u``
    and ``chi`` of shape (n, ny+1, nx+1), in the snapshots' order; their
    times are not stored.  Each member is written as its ``.npy`` header and
    then one slice per snapshot, so no stacked copy of the trajectory is made."""
    for snap in snapshots:
        grid.check_nodal("snapshot u", snap.u)
        grid.check_nodal("snapshot chi", snap.chi)
    header = {"descr": "<f8", "fortran_order": False, "shape": (len(snapshots), *grid.shape)}
    with atomic_open(path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as store:
        for name in ("u", "chi"):
            with store.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                for snap in snapshots:
                    member.write(np.ascontiguousarray(getattr(snap, name), dtype="<f8"))


def read_trajectory_store(path, grid, n):
    """Arrays (u, chi) of a trajectory store, each of shape (n, ny+1, nx+1).

    Raises ValueError unless the file is an ``.npz`` holding float64 arrays
    ``u`` and ``chi`` of that shape whose values are all finite.
    """
    try:
        # np.load leaks a file it opened when the zip directory is bad
        with open(path, "rb") as f:
            store = np.load(f, allow_pickle=False)
            if not isinstance(store, np.lib.npyio.NpzFile):
                raise ValueError("one array, not an .npz store of u and chi")
            arrays = {name: store[name] for name in ("u", "chi")}
    except (EOFError, KeyError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not an .npz store of u and chi ({type(exc).__name__}: {exc})") \
            from None
    shape = (n, *grid.shape)
    for name, values in arrays.items():
        if values.dtype != np.float64:
            raise ValueError(f"array {name} has dtype {values.dtype}, expected float64")
        if values.shape != shape:
            raise ValueError(f"array {name} has shape {values.shape}, expected {shape}, "
                             "one slice of nodal values per snapshot")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"array {name} has a value that is not a finite number")
    return arrays["u"], arrays["chi"]
