"""CSV ingestion, covariate scaling, and JSON model persistence.

CSV files are comma-separated with a mandatory header row, UTF-8 (a
leading byte-order mark is skipped), and '.' as the decimal mark. Model
files are JSON with a mandatory schema_version field; floats are written
with repr so a load-save round trip reproduces predictions bit for bit.
"""

import csv
import json
import os
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import MODES, Dataset, PlqrFit
from .network import NetworkParams, _check_widths
from .quantile_loss import validate_tau

SCHEMA_VERSION = 1
# characters of CSV text that _read_bulk reads and parses at a time
_CHUNK_CHARS = 1 << 20
_MODEL_KEYS = ("tau", "mode", "theta", "x_dim", "z_dim", "network",
               "columns", "scaling")


@dataclass
class ColumnRoles:
    """Which CSV columns are the response, linear, and network covariates;
    a column named in two roles, y among them, raises ConfigError."""

    y: str
    x: list
    z: list

    def __post_init__(self):
        names = [self.y, *self.x, *self.z]
        repeated = sorted({c for c in names if names.count(c) > 1})
        if repeated:
            raise ConfigError(
                f"column(s) {repeated} given more than one role")


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


def _column_positions(path, header, used):
    """Index of each header name; every used name must appear exactly once."""
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
    return positions


def _read_bulk(path, used):
    """Column positions and every data column, parsed by np.loadtxt.

    The file is read and parsed in line-aligned chunks of about
    _CHUNK_CHARS characters, so that no more than one chunk of text is
    held at a time. Returns None for any file the row reader might read
    differently: bytes that are not UTF-8, a quote (a quoted cell may
    span lines), a bare carriage return, a line longer than the csv
    module's field limit, no data rows, or a cell np.loadtxt rejects
    (an empty cell, an underscore, a non-ASCII digit, a ragged or
    whitespace-only row). The row reader then gives the table or the
    DataError naming the line and column.
    """
    positions, tables = None, []
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            while chunk := handle.readlines(_CHUNK_CHARS):
                text = "".join(chunk).replace("\r\n", "\n")
                if '"' in text or "\r" in text:
                    return None
                lines = text.split("\n")
                if max(map(len, lines)) > csv.field_size_limit():
                    return None
                if positions is None:
                    header = next(csv.reader(lines[:1]))
                    positions = _column_positions(path, header, used)
                    lines = lines[1:]
                table = _parse_chunk(lines, len(header))
                if table is None:
                    return None
                tables.append(table)
    except UnicodeDecodeError:
        return None
    if sum(map(len, tables)) == 0:
        return None
    return positions, np.concatenate(tables)


def _parse_chunk(lines, width):
    """(rows, width) table of the non-blank lines, or None where
    np.loadtxt fails or skips a line that is not blank."""
    n_rows = len(lines) - lines.count("")
    if n_rows == 0:
        return np.empty((0, width))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", comments=None,
                               dtype=float, ndmin=2)
    except (ValueError, Warning):
        return None
    # the row reader skips blank lines only; fewer rows here would mean
    # np.loadtxt skipped some other line
    return table if table.shape == (n_rows, width) else None


def _read_rows(path, used, require_y):
    """Column positions and table of the used cells, read by csv.reader;
    any file it cannot turn into a table raises DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty (no header row)")
            positions = _column_positions(path, header, used)
            rows, missing_lines = [], []
            for line_no, record in enumerate(reader, start=2):
                if len(record) == 0:
                    continue
                if len(record) != len(header):
                    raise DataError(
                        f"line {line_no}: expected {len(header)} cells,"
                        f" got {len(record)}")
                row = [_parse_cell(record[positions[c]], line_no, c)
                       for c in used]
                if None in row:
                    missing_lines.append(line_no)
                else:
                    rows.append(row)
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
    if not rows and require_y:
        raise DataError(f"{path} has a header but no data rows")
    table = np.array(rows, dtype=float).reshape(len(rows), len(used))
    return {c: k for k, c in enumerate(used)}, table


def load_csv(path, roles, require_y=True):
    """Read a CSV file into a Dataset using the given column roles.

    Rows with missing (empty) cells in any used column are rejected; the
    error lists their line numbers (the header is line 1). require_y=False
    skips the response column (prediction inputs); the Dataset then
    carries y = 0 for every row, and a header-only file gives an n=0
    Dataset; with require_y=True it raises DataError. A plain numeric file
    is parsed in bulk, one chunk of about a MiB of text at a time, so the
    memory it takes beyond the table does not grow with the file; any
    other file goes through the row reader, which gives the same table
    and the same errors.
    """
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    used = ([roles.y] if require_y else []) + list(roles.x) + list(roles.z)
    positions, table = (_read_bulk(path, used)
                        or _read_rows(path, used, require_y))

    def block(names):
        # C order whichever reader built the table, so that later
        # arithmetic runs on the same memory layout
        return np.ascontiguousarray(table[:, [positions[c] for c in names]])

    y = block([roles.y])[:, 0] if require_y else np.zeros(len(table))
    return Dataset(y, block(roles.x), block(roles.z))


def _network_to_dict(params):
    return {"widths": list(params.widths),
            "layers": [w.reshape(-1).tolist() for w in params.layers]}


def _finite(values, name):
    """values as a float array; null (read as NaN) or inf raise DataError."""
    array = np.array(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise DataError(f"model {name} holds a null or non-finite entry")
    return array


def _network_from_dict(d):
    try:
        widths = _check_widths(d["widths"])
    except ConfigError as exc:
        raise DataError(f"model network: {exc}") from None
    if len(d["layers"]) != len(widths) - 1:
        raise DataError(f"network with widths {widths} needs"
                        f" {len(widths) - 1} layer(s), got {len(d['layers'])}")
    layers = []
    for k, flat in enumerate(d["layers"]):
        shape = (widths[k + 1], widths[k] + 1)
        layer = _finite(flat, f"network layer {k}")
        if layer.size != shape[0] * shape[1]:
            raise DataError(f"network layer {k} needs {shape[0] * shape[1]}"
                            f" entries, got {layer.size}")
        layers.append(layer.reshape(shape))
    return NetworkParams(widths, layers)


def _scaling_from_dict(d):
    if d is None:
        return None
    scaling = ScalingParams(*(_finite(d[k], f"scaling {k}")
                              for k in ("x_low", "x_span", "z_low", "z_span")))
    if np.any(scaling.x_span <= 0) or np.any(scaling.z_span <= 0):
        raise DataError("model scaling spans must be positive")
    return scaling


def model_to_dict(fit, roles, scaling=None):
    """JSON-ready dict capturing a fit, its column roles, and scaling."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tau": fit.tau,
        "mode": fit.mode,
        "theta": _jsonable(fit.theta_hat),
        "x_dim": len(fit.theta_hat),
        "z_dim": fit.network.widths[0],
        "network": _network_to_dict(fit.network),
        "columns": _jsonable(roles),
        "scaling": _jsonable(scaling),
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
        raise DataError(f"model mode must be one of {MODES}, got"
                        f" {payload['mode']!r}; refit the model")
    if payload["network"] is None:
        raise DataError("the model file has no network: it is an x-only"
                        " model without an intercept; refit it")
    for key in ("x_dim", "z_dim"):
        if type(payload[key]) is not int or payload[key] < 0:
            raise DataError(f"model {key} must be a non-negative integer,"
                            f" got {payload[key]!r}")
    try:
        fit = PlqrFit(
            theta_hat=_finite(payload["theta"], "theta"),
            network=_network_from_dict(payload["network"]),
            tau=validate_tau(payload["tau"]),
            history=None,
            mode=payload["mode"],
        )
        cols = payload["columns"]
        lists = all(isinstance(names, list)
                    and all(isinstance(name, str) for name in names)
                    for names in (cols["x"], cols["z"]))
        if not isinstance(cols["y"], str) or not lists:
            raise TypeError(f"columns need a y name and x and z name lists,"
                            f" got {cols!r}")
        roles = ColumnRoles(cols["y"], list(cols["x"]), list(cols["z"]))
        scaling = _scaling_from_dict(payload["scaling"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc!r}") from None
    _check_dims(fit, payload["x_dim"], payload["z_dim"], roles, scaling)
    return fit, roles, scaling


def _check_dims(fit, x_dim, z_dim, roles, scaling):
    """A loaded model's theta, network input, columns and scaling must
    have the x_dim and z_dim its file states."""
    if fit.theta_hat.shape != (x_dim,):
        raise DataError(f"a model with x_dim {x_dim} needs {x_dim} theta"
                        f" entries, got {fit.theta_hat.size}")
    width = fit.network.widths[0]
    if width != z_dim:
        raise DataError(f"a model with z_dim {z_dim} needs network input"
                        f" width {z_dim}, got {width}")
    if (len(roles.x), len(roles.z)) != (x_dim, z_dim):
        raise DataError(f"model columns {roles.x} and {roles.z} do not"
                        f" match x_dim {x_dim} and z_dim {z_dim}")
    if scaling is not None and any(
            block.shape != (dim,) for block, dim in (
                (scaling.x_low, x_dim), (scaling.x_span, x_dim),
                (scaling.z_low, z_dim), (scaling.z_span, z_dim))):
        raise DataError("model scaling does not match x_dim and z_dim")


def _jsonable(value):
    """Make a value JSON-safe: dataclasses to dicts of their fields, arrays
    and tuples to lists, numpy scalars to Python ones, non-finite floats to
    None."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def json_text(payload):
    """Deterministic JSON text: sorted keys, repr floats, newline at end."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_text(payload))


def read_json(path):
    """The value in a JSON file; DataError if the file is missing, is not
    UTF-8 or is not JSON."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def save_model(path, fit, roles, scaling=None):
    write_json(path, model_to_dict(fit, roles, scaling))


def load_model(path):
    return model_from_dict(read_json(path))
