"""Property tests of CSV loading and model-file round trips."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from dplqr.errors import DataError
from dplqr.model import Dataset, PlqrFit, predict_batch
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


@st.composite
def fitted_models(draw):
    mode = draw(st.sampled_from(["dplqr", "lqr", "dnqr"]))
    p = draw(st.integers(0 if mode == "dnqr" else 1, 3))
    q = draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    if mode == "lqr":
        hidden = []
    n_in = p + q if mode == "dnqr" else q
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    network = init_params((n_in, *hidden, 1), rng)
    scale = draw(st.floats(1e-3, 1e3))
    for w in network.layers:
        w[:, -1] = rng.normal(size=w.shape[0])
        w *= scale
    theta = np.zeros(0) if mode == "dnqr" else rng.normal(size=p) * scale
    fit = PlqrFit(theta, network, draw(st.floats(0.01, 0.99)), None, mode,
                  x_dim=p, z_dim=q)
    return fit, rng.normal(size=(7, p)), rng.normal(size=(7, q))


@PROPERTY
@given(fitted_models())
def test_model_file_round_trip_predicts_bit_for_bit(model):
    fit, x, z = model
    roles = ColumnRoles("y", [f"x{k}" for k in range(fit.x_dim)],
                        [f"z{k}" for k in range(fit.z_dim)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, fit, roles)
        loaded, loaded_roles, scaling = load_model(path)
    assert scaling is None and loaded_roles == roles
    assert_array_equal(loaded.theta_hat, fit.theta_hat)
    assert (predict_batch(loaded, x, z).tobytes()
            == predict_batch(fit, x, z).tobytes())
