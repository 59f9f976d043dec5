"""Deterministic CSV/JSON output with atomic writes and run manifests.

Floats are serialized with the shortest round-trip decimal representation
and a fixed column order, so a rerun with the same config and seed yields
byte-identical files.  JSON is strict: a non-finite float is written as
null.

Every file is written to a temporary file beside its target and moved into
place only once complete, so a failed write leaves the target as it was.
CSV files are streamed: each block of CSV_BLOCK rows is formatted and
written before the next, so writing a file takes memory of one block,
whatever its length.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import re
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import config_hash


def fmt(value) -> str:
    """Shortest exact decimal for floats; plain text for ints/bools/strings."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, data: str | Iterable[str]):
    """Write `data`, a string or text pieces written one after another, to a
    temporary file and move it to `path`; on any error the temporary file is
    removed and `path` is left as it was."""
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".tmp_", text=True)
    # mkstemp creates the file 0600; give it the mode open() would, 0666
    # less the umask.  os.umask can only be read by setting it.
    umask = os.umask(0o077)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Rows per block of write_csv: a block is formatted, written and freed
# before the next one is formatted.
CSV_BLOCK = 1 << 12

# Text that would end a CSV cell or row early.
_CSV_SPECIAL = re.compile(r'[,"\n\r]')


def _column_text(column) -> list[str]:
    """`fmt` of every entry; numpy float, bool and int columns are formatted
    in one pass over `tolist()`, with the same text."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        if column.dtype.kind == "b":
            return ["true" if v else "false" for v in column.tolist()]
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [fmt(v) for v in column]


def _csv_blocks(header: list[str], columns):
    """The CSV text, one piece for the header and one per block of rows.
    Only cells outside numeric arrays can hold special characters, so only
    those are checked."""
    yield ",".join(header) + "\n"
    numeric = [isinstance(c, np.ndarray) and c.dtype.kind in "fbiu" for c in columns]
    for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK):
        texts = []
        for name, column, is_numeric in zip(header, columns, numeric):
            text = _column_text(column[start:start + CSV_BLOCK])
            if not is_numeric and _CSV_SPECIAL.search("".join(text)):
                row = next(i for i, t in enumerate(text) if _CSV_SPECIAL.search(t))
                raise ValueError(f"column {name!r}, row {start + row}: cell "
                                 f"{text[row]!r} holds a comma, quote or line break")
            texts.append(text)
        yield "\n".join(map(",".join, zip(*texts))) + "\n"


def write_csv(path: str, header: list[str], rows=(), *, columns=None) -> str:
    """CSV of `rows`, or of `columns` (one sequence per header field, all of
    one length) when given, with every value written as `fmt` writes it.

    The file is streamed block by block (see the module docstring).  A cell
    whose text holds a comma, a double quote or a line break raises
    ValueError, and the target file is left as it was.
    """
    if columns is None:
        rows = list(rows)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
        columns = list(zip(*rows)) or [()] * len(header)
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns != header width {len(header)}")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    _atomic_write(path, _csv_blocks(header, columns))
    return path


def _finite_or_null(obj):
    """`obj` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def write_json(path: str, obj) -> str:
    """Strict JSON of `obj`: a non-finite float is written as null, since
    JSON has no token for it."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                      allow_nan=False)
    _atomic_write(path, text + "\n")
    return path


def write_estimates_csv(path: str, raw_config: dict, named_estimates) -> str:
    """Fixed-schema estimator rows: estimator, value, std_error, n_samples, config_hash."""
    h = config_hash(raw_config)
    rows = [[name, est.value, est.std_error, est.n_samples, h]
            for name, est in named_estimates]
    return write_csv(path, ["estimator", "value", "std_error", "n_samples",
                            "config_hash"], rows)


def _utc_now() -> str:
    return (datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0).isoformat().replace("+00:00", "Z"))


@dataclass
class ManifestWriter:
    """Collects output file names and writes the reproducibility manifest."""

    out_dir: str
    raw_config: dict
    seed: int

    def __post_init__(self):
        self.started = _utc_now()
        self.files: list[str] = []
        self.wall_time: float | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def register(self, path: str) -> str:
        self.files.append(os.path.basename(path))
        return path

    def write(self) -> str:
        manifest = {
            "config": self.raw_config,
            "config_hash": config_hash(self.raw_config),
            "seed": self.seed,
            "code_version": __version__,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "outputs": sorted(self.files),
        }
        if self.wall_time is not None:
            manifest["wall_time_s"] = self.wall_time
        return write_json(self.path("manifest.json"), manifest)
