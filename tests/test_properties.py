"""Property tests of CSV loading and model-file round trips."""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from dplqr import modelio
from dplqr.errors import DataError
from dplqr.model import MODES, Dataset, PlqrFit, predict_batch
from dplqr.modelio import ColumnRoles, load_csv, load_model, save_model
from dplqr.network import init_params
from dplqr.rng import make_rng

# Fixed example sequences and no example database: the tier-1 suite
# checks the same inputs on every run and leaves no files behind.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

ROLES = ColumnRoles(y="y", x=["x1"], z=["z1", "z2"])
HEADER = "y,x1,z1,z2\n"

finite = st.floats(allow_nan=False, allow_infinity=False)


def _load_bytes(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(content)
        return load_csv(path, ROLES)


def _load_text(text):
    return _load_bytes(text.encode("utf-8"))


@PROPERTY
@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1,
                max_size=12))
def test_load_csv_reads_back_repr_floats_exactly(rows):
    text = HEADER + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    data = _load_text(text)
    table = np.array(rows, dtype=float)
    # bytes, not values: -0.0 must come back as -0.0
    assert data.y.tobytes() == table[:, 0].tobytes()
    assert data.x.tobytes() == table[:, 1:2].tobytes()
    assert data.z.tobytes() == table[:, 2:].tobytes()


def _dataset_or_data_error(content):
    try:
        data = _load_bytes(content)
    except DataError:
        return
    assert isinstance(data, Dataset)


def _with_cell(cell, column):
    cells = {"y": b"1.5", "x1": b"-2.0", "z1": b"0.25", "z2": b"3e-3"}
    cells[column] = cell
    return (HEADER.encode() + b",".join(cells.values())
            + b"\n1.0,2.0,3.0,4.0\n")


COLUMNS = st.sampled_from(["y", "x1", "z2"])


@PROPERTY
@given(st.text(max_size=30), COLUMNS)
def test_any_cell_text_gives_a_dataset_or_a_data_error(cell, column):
    _dataset_or_data_error(_with_cell(cell.encode("utf-8"), column))


@PROPERTY
@given(st.binary(max_size=30), COLUMNS)
def test_any_cell_bytes_give_a_dataset_or_a_data_error(cell, column):
    _dataset_or_data_error(_with_cell(cell, column))


# Cells that a reader might take differently from float(cell.strip()).
TRAP_CELLS = ["", " ", "nan", "-inf", "1e400", "1_0", "#", "1#2", " 2.5 ",
              "\t-3\t", "\xa04\xa0", "\u0664\u0662", "\ufeff1", "1\x00",
              '"5"', '"6,7"', '"8\n9"', '"', "0" * 200_000]
HEADERS = [["y", "x1", "z1", "z2"], [" y ", "x1", "z1", "z2", "u"],
           ["y", "x1", "u", "z1", "z2", "u"], ["y", "x1", "z1"],
           ['"u\nv"', "y", "x1", "z1", "z2"]]
EOLS = ["\n", "\r\n", "\r"]


@st.composite
def csv_files(draw):
    header = draw(st.sampled_from(HEADERS))
    n, eol = len(header), draw(st.sampled_from(EOLS))
    widths, cells, gaps, eols = [n], finite.map(repr), [""], st.just(eol)
    # half the files hold no trap, so that both paths get compared
    if draw(st.booleans()):
        widths = [draw(st.sampled_from([n - 1, n, n + 1]))] * 4 + [n - 1,
                                                                    n + 1]
        cells = st.one_of(cells, cells, cells, st.sampled_from(TRAP_CELLS))
        gaps += ["  ", "\t"]
        eols = st.sampled_from([eol] * 4 + EOLS)
    row = st.sampled_from(widths).flatmap(
        lambda w: st.lists(cells, min_size=w, max_size=w))
    line = st.one_of(row.map(",".join), row.map(",".join),
                     st.sampled_from(gaps))
    body = draw(st.lists(st.tuples(eols, line), max_size=6))
    text = (",".join(header) + "".join(sep + record for sep, record in body)
            + draw(st.sampled_from([eol, ""])))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


def _outcome(path, require_y):
    try:
        data = load_csv(path, ROLES, require_y=require_y)
    except DataError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (data.y, data.x, data.z)]


@settings(PROPERTY, max_examples=400)
@given(csv_files(), st.booleans())
# traps seen in np.loadtxt: every row one cell too long, a comment mark,
# a quoted header cell spanning lines, a field over the csv module's
# limit, and a bare carriage return inside a line
@example(HEADER.encode() + b"1,2,3,4,5\n", True)
@example(HEADER.encode() + b"1,2,3,4#5\n", True)
@example(b'"u\nv",' + HEADER.encode() + b"0,1,2,3,4\n", True)
@example(HEADER.encode() + b"1,2,3," + b"0" * 200_000 + b"\n", True)
@example(HEADER.encode() + b"1,2,3,4\r5,6,7,8\n", False)
# traps at chunk boundaries, for the runs in 7-character chunks below:
# a \r\n whose \r ends the third 7-character piece of the file; a
# quote, a bare \r and bytes that are not UTF-8 after the first chunk,
# the last beyond the 8 KiB a text file decodes at a time, with and
# without a missing column; a line longer than a chunk; a byte-order
# mark; no newline at the end
@example(HEADER.replace("\n", "\r\n").encode() + b"1,2,3,45\r\n6,7,8,9\r\n",
         True)
@example(HEADER.encode() + b"1,2,3,4\n" * 3 + b'5,"6",7,8\n', True)
@example(HEADER.encode() + b"1,2,3,4\n" * 3 + b"5,6,7,8\r9,9,9,9\n", False)
@example(HEADER.encode() + b"1,2,3,4\n" * 1100 + b"5,6,7,\xff\n", True)
@example(b"y,x1,z1\n" + b"1,2,3\n" * 3000 + b"5,6,\xff\n", True)
@example(HEADER.encode() + b"1.25,2.5,3.75,4.125\n1,2,3,4\n", True)
@example(b"\xef\xbb\xbf" + HEADER.encode() + b"1,2,3,4\n5,6,7,8\n", False)
@example(HEADER.encode() + b"1,2,3,4\n5,6,7,8", True)
def test_bulk_path_matches_the_row_reader(content, require_y):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(content)
        chosen = _outcome(path, require_y)
        with mock.patch.object(modelio, "_read_bulk", return_value=None):
            rows_only = _outcome(path, require_y)
    assert chosen == rows_only


def test_bulk_path_in_small_chunks_matches_the_row_reader():
    with mock.patch.object(modelio, "_CHUNK_CHARS", 7):
        test_bulk_path_matches_the_row_reader()


@PROPERTY
@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1,
                max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_plain_numeric_file_takes_the_bulk_path(rows, eol, bom):
    text = (("\ufeff" if bom else "") + HEADER.replace("\n", eol)
            + "".join(",".join(map(repr, row)) + eol for row in rows))
    failing = mock.patch.object(modelio, "_read_rows",
                                side_effect=AssertionError("row reader used"))
    with failing:
        data = _load_text(text)
    table = np.array(rows, dtype=float)
    assert data.y.tobytes() == table[:, 0].tobytes()
    assert data.x.tobytes() == table[:, 1:2].tobytes()
    assert data.z.tobytes() == table[:, 2:].tobytes()


def test_plain_numeric_file_in_small_chunks_takes_the_bulk_path():
    with mock.patch.object(modelio, "_CHUNK_CHARS", 7):
        test_plain_numeric_file_takes_the_bulk_path()


@st.composite
def fitted_models(draw):
    # every kind of fit a model file records
    mode = draw(st.sampled_from(MODES))
    # with p = 0 (a dnqr fit) every covariate is in z; with q = 0, an
    # x-only fit, the network is the (0, 1) intercept
    p = draw(st.integers(0, 3))
    q = draw(st.integers(1 if p == 0 else 0, 3))
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    if mode == "lqr" or q == 0:
        hidden = []
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    network = init_params((q, *hidden, 1), rng)
    scale = draw(st.floats(1e-3, 1e3))
    for w in network.layers:
        w[:, -1] = rng.normal(size=w.shape[0])
        w *= scale
    theta = rng.normal(size=p) * scale
    fit = PlqrFit(theta, network, draw(st.floats(0.01, 0.99)), None, mode)
    return fit, rng.normal(size=(7, p)), rng.normal(size=(7, q))


@PROPERTY
@given(fitted_models())
def test_model_file_round_trip_predicts_bit_for_bit(model):
    fit, x, z = model
    roles = ColumnRoles("y", [f"x{k}" for k in range(x.shape[1])],
                        [f"z{k}" for k in range(z.shape[1])])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, fit, roles)
        loaded, loaded_roles, scaling = load_model(path)
    assert scaling is None and loaded_roles == roles
    assert_array_equal(loaded.theta_hat, fit.theta_hat)
    assert (predict_batch(loaded, x, z).tobytes()
            == predict_batch(fit, x, z).tobytes())
