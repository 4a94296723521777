"""CSV ingestion, covariate scaling, and JSON model persistence.

CSV files are comma-separated with a mandatory header row, UTF-8 (a
leading byte-order mark is skipped), and '.' as the decimal mark. Model
files are JSON with a mandatory schema_version field; floats are written
with repr so a load-save round trip reproduces predictions bit for bit.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import Dataset, PlqrFit
from .network import NetworkParams
from .optimizer import MODES

SCHEMA_VERSION = 1
_MODEL_KEYS = ("tau", "mode", "theta", "x_dim", "z_dim", "network",
               "columns", "scaling")


@dataclass
class ColumnRoles:
    """Which CSV columns are the response, linear, and network covariates."""

    y: str
    x: list
    z: list


@dataclass
class ScalingParams:
    """Per-column min-max affine maps applied to covariates before fitting.

    Columns are mapped to (value - low) / span; a constant column gets
    span 1 so it maps to 0. The response is never scaled.
    """

    x_low: np.ndarray
    x_span: np.ndarray
    z_low: np.ndarray
    z_span: np.ndarray


def compute_scaling(data):
    """Min-max scaling parameters of a dataset's covariate columns."""

    def low_span(block):
        if block.shape[0] == 0:
            raise DataError("cannot derive scaling from an empty dataset")
        low = block.min(axis=0)
        span = block.max(axis=0) - low
        span[span == 0.0] = 1.0
        return low, span

    x_low, x_span = low_span(data.x)
    z_low, z_span = low_span(data.z)
    return ScalingParams(x_low, x_span, z_low, z_span)


def apply_scaling(data, scaling):
    """Dataset with covariates mapped through the stored affine maps."""
    if scaling is None:
        return data
    return Dataset(data.y,
                   (data.x - scaling.x_low) / scaling.x_span,
                   (data.z - scaling.z_low) / scaling.z_span)


def _parse_cell(text, line_no, column):
    text = text.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"line {line_no}, column {column!r}: could not parse"
            f" {text!r} as a number") from None


def _read_rows(path, reader, used):
    """Parsed used cells of every complete row, and the incomplete lines."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty (no header row)") from None
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}

    unknown = [c for c in used if c not in positions]
    if unknown:
        raise DataError(
            f"column(s) {unknown} not in {path}; available: {header}")
    repeated = sorted({c for c in used if header.count(c) > 1})
    if repeated:
        raise DataError(f"column(s) {repeated} appear more than once in"
                        f" the header of {path}")

    rows, missing_lines = [], []
    for line_no, record in enumerate(reader, start=2):
        if len(record) == 0:
            continue
        if len(record) != len(header):
            raise DataError(
                f"line {line_no}: expected {len(header)} cells,"
                f" got {len(record)}")
        values = {}
        has_missing = False
        for column in used:
            value = _parse_cell(record[positions[column]], line_no, column)
            if value is None:
                has_missing = True
            else:
                values[column] = value
        if has_missing:
            missing_lines.append(line_no)
        else:
            rows.append(values)
    return rows, missing_lines


def load_csv(path, roles, require_y=True, allow_empty=False):
    """Read a CSV file into a Dataset using the given column roles.

    Rows with missing (empty) cells in any used column are rejected; the
    error lists their line numbers (the header is line 1). require_y=False
    skips the response column (prediction inputs); the Dataset then
    carries y = 0 for every row. allow_empty=True permits a header-only
    file, producing an n=0 Dataset.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    used = ([roles.y] if require_y else []) + list(roles.x) + list(roles.z)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows, missing_lines = _read_rows(path, reader, used)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(
            f"{path}, line {reader.line_num}: malformed CSV: {exc}") from None

    if missing_lines:
        shown = ", ".join(str(l) for l in missing_lines[:20])
        more = "" if len(missing_lines) <= 20 else ", ..."
        raise DataError(
            f"missing cell(s) on line(s) {shown}{more} of {path}")
    if not rows and not allow_empty:
        raise DataError(f"{path} has a header but no data rows")

    n = len(rows)
    y = (np.array([r[roles.y] for r in rows])
         if require_y else np.zeros(n))
    x = np.array([[r[c] for c in roles.x] for r in rows]).reshape(n, len(roles.x))
    z = np.array([[r[c] for c in roles.z] for r in rows]).reshape(n, len(roles.z))
    return Dataset(y, x, z)


def _network_to_dict(params):
    if params is None:
        return None
    return {"widths": list(params.widths),
            "layers": [w.reshape(-1).tolist() for w in params.layers]}


def _network_from_dict(d):
    if d is None:
        return None
    widths = tuple(int(w) for w in d["widths"])
    if len(widths) < 2 or widths[-1] != 1:
        raise DataError(f"network widths {widths} must end in output width 1")
    if len(d["layers"]) != len(widths) - 1:
        raise DataError(f"network with widths {widths} needs"
                        f" {len(widths) - 1} layer(s), got {len(d['layers'])}")
    layers = []
    for k, flat in enumerate(d["layers"]):
        shape = (widths[k + 1], widths[k] + 1)
        layer = np.array(flat, dtype=float)
        if layer.size != shape[0] * shape[1]:
            raise DataError(f"network layer {k} needs {shape[0] * shape[1]}"
                            f" entries, got {layer.size}")
        layers.append(layer.reshape(shape))
    return NetworkParams(widths, layers)


def _scaling_to_dict(scaling):
    if scaling is None:
        return None
    return {"x_low": scaling.x_low.tolist(),
            "x_span": scaling.x_span.tolist(),
            "z_low": scaling.z_low.tolist(),
            "z_span": scaling.z_span.tolist()}


def _scaling_from_dict(d):
    if d is None:
        return None
    return ScalingParams(*(np.array(d[k], dtype=float)
                           for k in ("x_low", "x_span", "z_low", "z_span")))


def model_to_dict(fit, roles, scaling=None):
    """JSON-ready dict capturing a fit, its column roles, and scaling."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tau": fit.tau,
        "mode": fit.mode,
        "theta": np.asarray(fit.theta_hat, dtype=float).tolist(),
        "x_dim": fit.x_dim,
        "z_dim": fit.z_dim,
        "network": _network_to_dict(fit.network),
        "columns": {"y": roles.y, "x": list(roles.x), "z": list(roles.z)},
        "scaling": _scaling_to_dict(scaling),
    }


def model_from_dict(payload):
    """Inverse of model_to_dict: (PlqrFit, ColumnRoles, ScalingParams).

    A payload that model_to_dict could not have written raises DataError.
    """
    if not isinstance(payload, dict):
        raise DataError("a model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema_version {version!r};"
            f" this build reads version {SCHEMA_VERSION}")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise DataError(f"model file lacks key(s) {missing}")
    if payload["mode"] not in MODES:
        raise DataError(f"model mode must be one of {MODES},"
                        f" got {payload['mode']!r}")
    try:
        fit = PlqrFit(
            theta_hat=np.array(payload["theta"], dtype=float),
            network=_network_from_dict(payload["network"]),
            tau=float(payload["tau"]),
            history=None,
            mode=payload["mode"],
            x_dim=int(payload["x_dim"]),
            z_dim=int(payload["z_dim"]),
        )
        cols = payload["columns"]
        roles = ColumnRoles(cols["y"], list(cols["x"]), list(cols["z"]))
        scaling = _scaling_from_dict(payload["scaling"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc!r}") from None
    _check_layout(fit, roles, scaling)
    return fit, roles, scaling


def _check_layout(fit, roles, scaling):
    """Dimensions of a loaded model must agree with its x_dim and z_dim."""
    dnqr = fit.mode == "dnqr"
    n_theta = 0 if dnqr else fit.x_dim
    if fit.theta_hat.shape != (n_theta,):
        raise DataError(f"a {fit.mode} model with x_dim {fit.x_dim} needs"
                        f" {n_theta} theta entries, got {fit.theta_hat.size}")
    n_in = fit.x_dim + fit.z_dim if dnqr else fit.z_dim
    width = 0 if fit.network is None else fit.network.widths[0]
    if width != n_in:
        raise DataError(f"a {fit.mode} model with x_dim {fit.x_dim} and"
                        f" z_dim {fit.z_dim} needs network input width"
                        f" {n_in}, got {width}")
    if (len(roles.x), len(roles.z)) != (fit.x_dim, fit.z_dim):
        raise DataError(f"model columns {roles.x} and {roles.z} do not"
                        f" match x_dim {fit.x_dim} and z_dim {fit.z_dim}")
    if scaling is not None and any(
            block.shape != (dim,) for block, dim in (
                (scaling.x_low, fit.x_dim), (scaling.x_span, fit.x_dim),
                (scaling.z_low, fit.z_dim), (scaling.z_span, fit.z_dim))):
        raise DataError("model scaling does not match x_dim and z_dim")


def write_json(path, payload):
    """Deterministic JSON dump: sorted keys, repr floats, newline at end."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2,
                  allow_nan=False)
        handle.write("\n")


def save_model(path, fit, roles, scaling=None):
    write_json(path, model_to_dict(fit, roles, scaling))


def load_model(path):
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from None
    return model_from_dict(payload)
