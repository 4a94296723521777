"""Tests for CSV loading, covariate scaling, and model persistence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dplqr.errors import DataError
from dplqr.model import Dataset, fit, predict_batch
from dplqr.modelio import (ColumnRoles, apply_scaling, compute_scaling,
                           load_csv, load_model, model_from_dict,
                           model_to_dict, save_model)
from dplqr.optimizer import TrainConfig
from dplqr.rng import make_rng

ROLES = ColumnRoles(y="y", x=["x1", "x2"], z=["z1"])


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1\n"
                      "1.0,0.5,1.5,0.1\n"
                      "2.0,-0.5,2.5,0.2\n"
                      "3.0,1.5,3.5,0.3\n")
        data = load_csv(path, ROLES)
        assert data.n == 3
        assert_allclose(data.y, [1.0, 2.0, 3.0])
        assert_allclose(data.x[:, 0], [0.5, -0.5, 1.5])
        assert_allclose(data.z[:, 0], [0.1, 0.2, 0.3])

    def test_column_order_follows_roles_not_file(self, tmp_path):
        path = _write(tmp_path,
                      "z1,y,x2,x1\n"
                      "0.1,1.0,9.0,7.0\n"
                      "0.2,2.0,8.0,6.0\n")
        data = load_csv(path, ROLES)
        assert_allclose(data.x[0], [7.0, 9.0])

    def test_extra_columns_ignored(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1,notes\n"
                      "1.0,0.0,0.0,0.5,left\n"
                      "2.0,1.0,1.0,0.6,right\n")
        data = load_csv(path, ROLES)
        assert data.n == 2

    def test_header_only_rejected_by_default(self, tmp_path):
        path = _write(tmp_path, "y,x1,x2,z1\n")
        with pytest.raises(DataError):
            load_csv(path, ROLES)

    def test_header_only_allowed_when_asked(self, tmp_path):
        path = _write(tmp_path, "y,x1,x2,z1\n")
        data = load_csv(path, ROLES, allow_empty=True)
        assert data.n == 0

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(DataError):
            load_csv(path, ROLES)

    def test_nonnumeric_cell_reported_with_location(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1\n"
                      "1.0,0.0,0.0,0.5\n"
                      "2.0,abc,0.0,0.6\n")
        with pytest.raises(DataError, match="line 3.*x1.*abc"):
            load_csv(path, ROLES)

    def test_missing_cells_listed(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1\n"
                      "1.0,,0.0,0.5\n"
                      "2.0,1.0,0.0,\n")
        with pytest.raises(DataError, match="line\\(s\\) 2, 3"):
            load_csv(path, ROLES)

    def test_missing_column_reported(self, tmp_path):
        path = _write(tmp_path, "y,x1,z1\n1.0,0.0,0.5\n")
        with pytest.raises(DataError, match="x2"):
            load_csv(path, ROLES)

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1\n"
                      "1.0,0.0,0.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, ROLES)

    def test_without_response(self, tmp_path):
        path = _write(tmp_path,
                      "x1,x2,z1\n"
                      "0.0,1.0,0.5\n")
        roles = ColumnRoles(y="y", x=["x1", "x2"], z=["z1"])
        data = load_csv(path, roles, require_y=False)
        assert data.n == 1
        assert_allclose(data.y, [0.0])

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"y,x1,x2,z1\n1.0,0.5,1.5,\xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(str(path), ROLES)

    def test_byte_order_mark_skipped(self, tmp_path):
        path = _write(tmp_path, "\ufeffy,x1,x2,z1\n1.0,0.5,1.5,0.1\n")
        data = load_csv(path, ROLES)
        assert_allclose(data.y, [1.0])

    def test_repeated_used_column_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x1,x2,z1\n"
                      "1.0,0.5,9.0,1.5,0.1\n")
        with pytest.raises(DataError, match="x1.*more than once"):
            load_csv(path, ROLES)

    def test_repeated_unused_column_ignored(self, tmp_path):
        path = _write(tmp_path,
                      "y,x1,x2,z1,note,note\n"
                      "1.0,0.5,1.5,0.1,a,b\n")
        assert load_csv(path, ROLES).n == 1

    def test_malformed_csv_rejected(self, tmp_path):
        # a cell beyond the csv module's field size limit
        path = _write(tmp_path,
                      "y,x1,x2,z1\n1.0,0.5,1.5," + "1" * 200_000 + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, ROLES)

    def test_no_such_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(str(tmp_path / "absent.csv"), ROLES)


class TestScaling:
    def test_min_max_maps_to_unit_interval(self):
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.normal(size=50),
                       x=rng.uniform(-3, 7, size=(50, 2)),
                       z=rng.uniform(10, 30, size=(50, 3)))
        scaling = compute_scaling(data)
        scaled = apply_scaling(data, scaling)
        for block in (scaled.x, scaled.z):
            assert block.min() >= 0.0 and block.max() <= 1.0
            assert_allclose(block.min(axis=0), 0.0, atol=1e-12)
            assert_allclose(block.max(axis=0), 1.0, atol=1e-12)
        assert_allclose(scaled.y, data.y, rtol=0)

    def test_constant_column_maps_to_zero(self):
        data = Dataset(y=np.zeros(10), x=np.full((10, 1), 4.0),
                       z=np.arange(10.0).reshape(-1, 1))
        scaled = apply_scaling(data, compute_scaling(data))
        assert_allclose(scaled.x[:, 0], 0.0)

    def test_none_scaling_is_identity(self):
        data = Dataset(y=np.zeros(5), x=np.ones((5, 1)), z=None)
        assert apply_scaling(data, None) is data

    def test_new_data_uses_stored_maps(self):
        train = Dataset(y=np.zeros(4),
                        x=np.array([[0.0], [2.0], [1.0], [0.5]]), z=None)
        scaling = compute_scaling(train)
        fresh = Dataset(y=np.zeros(2), x=np.array([[3.0], [-1.0]]), z=None)
        scaled = apply_scaling(fresh, scaling)
        # values outside the training range extrapolate past [0, 1]
        assert_allclose(scaled.x[:, 0], [1.5, -0.5])


class TestModelPersistence:
    def _fitted(self):
        rng = np.random.default_rng(3)
        n = 100
        data = Dataset(y=rng.normal(size=n), x=rng.normal(size=(n, 2)),
                       z=rng.uniform(0, 2, size=(n, 1)))
        cfg = TrainConfig(depth=2, width=4, epochs=20, minibatch=50,
                          early_stop_patience=20)
        return fit(data, 0.3, cfg, make_rng(1)), data

    def test_round_trip_identity_on_predictions(self, tmp_path):
        fitted, data = self._fitted()
        roles = ColumnRoles(y="y", x=["a", "b"], z=["c"])
        path = str(tmp_path / "model.json")
        save_model(path, fitted, roles)
        loaded, roles2, scaling2 = load_model(path)
        assert loaded.tau == fitted.tau
        assert loaded.mode == fitted.mode
        assert roles2.x == ["a", "b"]
        assert scaling2 is None
        # predictions must agree bit for bit on 100 held inputs
        want = predict_batch(fitted, data.x, data.z)
        got = predict_batch(loaded, data.x, data.z)
        assert_allclose(got, want, rtol=0, atol=0)

    def test_round_trip_preserves_scaling(self, tmp_path):
        fitted, data = self._fitted()
        roles = ColumnRoles(y="y", x=["a", "b"], z=["c"])
        scaling = compute_scaling(data)
        path = str(tmp_path / "model.json")
        save_model(path, fitted, roles, scaling)
        _, _, loaded_scaling = load_model(path)
        assert_allclose(loaded_scaling.x_low, scaling.x_low, rtol=0)
        assert_allclose(loaded_scaling.x_span, scaling.x_span, rtol=0)
        assert_allclose(loaded_scaling.z_low, scaling.z_low, rtol=0)
        assert_allclose(loaded_scaling.z_span, scaling.z_span, rtol=0)

    def test_dict_round_trip_equals_identity(self):
        fitted, _ = self._fitted()
        roles = ColumnRoles(y="y", x=["a", "b"], z=["c"])
        payload = model_to_dict(fitted, roles)
        loaded, _, _ = model_from_dict(payload)
        assert_allclose(loaded.theta_hat, fitted.theta_hat, rtol=0)
        for wa, wb in zip(loaded.network.layers, fitted.network.layers):
            assert_allclose(wa, wb, rtol=0)

    def test_schema_version_checked(self):
        fitted, _ = self._fitted()
        payload = model_to_dict(fitted, ColumnRoles("y", ["a", "b"], ["c"]))
        payload["schema_version"] = 99
        with pytest.raises(DataError, match="schema_version"):
            model_from_dict(payload)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(str(path))

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_model(str(tmp_path / "absent.json"))

    def test_saved_file_stable_across_saves(self, tmp_path):
        fitted, _ = self._fitted()
        roles = ColumnRoles(y="y", x=["a", "b"], z=["c"])
        p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        save_model(p1, fitted, roles)
        save_model(p2, fitted, roles)
        assert (tmp_path / "m1.json").read_bytes() == \
               (tmp_path / "m2.json").read_bytes()
