"""File formats: CSV sample logs, JSON CDF bundles, JSON/CSV reports.

CSV floats are written as decimals with 17 significant digits, and JSON
floats as Python's shortest round-trip repr; both are lossless for IEEE
doubles.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .auction_sim import FORMAT_FP, FORMAT_SP, AuctionModel, SampleSet
from .dist_core import PiecewiseCdf
from .errors import ValidationError

_HEADERS = {
    FORMAT_FP: ["y", "z"],
    FORMAT_SP: ["y", "w"],
}


def fmt_float(v):
    return f"{float(v):.17g}"


def _not_utf8(path, exc):
    return ValidationError(f"{path}: not UTF-8 text: {exc}")


def read_text(path):
    """The text of a UTF-8 file, in one read; any other file raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def io_write_samples(path, samples):
    """Write a sample log as CSV, headed by the columns of its auction."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADERS[samples.auction])
        for y, idx in zip(samples.y, samples.z):
            writer.writerow([fmt_float(y), int(idx)])


def io_read_samples(path, fmt, k):
    """Parse a CSV sample log; malformed rows raise with their line number."""
    if fmt not in (FORMAT_FP, FORMAT_SP):
        raise ValidationError(f"unsupported sample format {fmt!r}")
    ys, idxs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != _HEADERS[fmt]:
                raise ValidationError(
                    f"{path}: line 1: expected header {','.join(_HEADERS[fmt])!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValidationError(f"{path}: line {lineno}: expected 2 fields")
                try:
                    y = float(row[0])
                    idx = int(row[1])
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
                if not 0.0 <= y <= 1.0:
                    raise ValidationError(f"{path}: line {lineno}: price {y} outside [0,1]")
                if not 1 <= idx <= k:
                    raise ValidationError(
                        f"{path}: line {lineno}: bidder index {idx} outside 1..{k}"
                    )
                ys.append(y)
                idxs.append(idx)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    if not ys:
        raise ValidationError(f"{path}: no data rows")
    return SampleSet(y=np.asarray(ys), z=np.asarray(idxs), k=k, auction=fmt)


def io_write_cdfs(path, cdfs, diagnostics=None):
    payload = {
        "version": 1,
        "cdfs": [c.to_dict() for c in cdfs],
        "diagnostics": _jsonable(diagnostics or {}),
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def io_read_cdfs(path):
    payload = json.loads(read_text(path))
    try:
        return [PiecewiseCdf.from_dict(d) for d in payload["cdfs"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: not a CDF bundle: {exc}") from exc


def io_write_model(path, model):
    Path(path).write_text(json.dumps(model.to_dict(), indent=2))


def io_read_model(path):
    try:
        return AuctionModel.from_dict(json.loads(read_text(path)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"{path}: not a model file: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if type(obj) is list and set(map(type, obj)) == {float}:
            return obj  # plain floats are their own JSON form: no call per item
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def config_hash(config_dict):
    canon = json.dumps(_jsonable(config_dict), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
