import os
import stat

import numpy as np
import pytest

from gibbsrwm import runio
from gibbsrwm.runio import write_csv, write_json


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by runio, as text fields."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600),
                                        (0o002, 0o664)])
def test_outputs_honour_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        csv_path = write_csv(str(tmp_path / "a.csv"), ["x"], [[1.5]])
        json_path = write_json(str(tmp_path / "a.json"), {"x": 1})
    finally:
        os.umask(old)
    for path in (csv_path, json_path):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert read_csv(csv_path) == (["x"], [["1.5"]])
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp_")] == []


def test_columns_write_the_same_bytes_as_rows(tmp_path):
    # Array columns are formatted by dtype in blocks; the text must be what
    # fmt writes row by row, across a block boundary and for special floats.
    m = runio.CSV_BLOCK + 3
    rng = np.random.default_rng(0)
    floats = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
    floats[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.1 + 0.2, 5e-324]
    columns = [np.arange(m), floats, rng.random(m) < 0.5,
               rng.standard_normal(m).astype(np.float32),
               (np.arange(m) % 256).astype(np.uint8),
               ["a"] * m]
    header = ["t", "f", "b", "f32", "u8", "s"]
    rows = [[c[t] for c in columns] for t in range(m)]
    by_rows = write_csv(str(tmp_path / "rows.csv"), header, rows)
    by_columns = write_csv(str(tmp_path / "cols.csv"), header, columns=columns)
    with open(by_rows, "rb") as a, open(by_columns, "rb") as b:
        assert a.read() == b.read()
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), header, columns=columns[:-1])
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), header[:2], columns=[np.zeros(2), np.zeros(3)])
