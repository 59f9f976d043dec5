import json
import math
import os
import stat
import tracemalloc

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


def join_write_csv(path: str, header: list[str], columns) -> str:
    """The writer runio used before it streamed: every line of the file is
    built, joined and written at once.  The reference for write_csv's
    bytes."""
    lines = [",".join(header)]
    for start in range(0, len(columns[0]) if columns else 0, runio.CSV_BLOCK):
        texts = [runio._column_text(c[start:start + runio.CSV_BLOCK]) for c in columns]
        lines.extend(map(",".join, zip(*texts)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def tmp_files(directory) -> list[str]:
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp_")]


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
    assert tmp_files(tmp_path) == []


def test_json_writes_non_finite_floats_as_null(tmp_path):
    finite = {"b": [1.5, 2, np.float64(0.1)], "a": {"x": -0.0, "s": "t"}}
    path = write_json(str(tmp_path / "f.json"), finite)
    assert read_bytes(path) == (json.dumps(finite, indent=2, sort_keys=True)
                                + "\n").encode()
    doc = {"inf": math.inf, "nested": [{"nan": math.nan}, (-math.inf, 1.0)],
           "n": np.float64("nan"), "ok": 2.5}
    path = write_json(str(tmp_path / "n.json"), doc)

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    assert json.loads(read_bytes(path), parse_constant=reject) == {
        "inf": None, "nested": [{"nan": None}, [None, 1.0]], "n": None,
        "ok": 2.5}


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
    joined = join_write_csv(str(tmp_path / "joined.csv"), header, columns)
    assert read_bytes(by_rows) == read_bytes(by_columns) == read_bytes(joined)
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), header, columns=columns[:-1])
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), header[:2], columns=[np.zeros(2), np.zeros(3)])


@pytest.mark.parametrize("m", [0, 1, runio.CSV_BLOCK, 2 * runio.CSV_BLOCK + 1])
def test_streamed_bytes_equal_the_joined_writer(tmp_path, m):
    # Block edges: empty, one row, exactly one block, a row past two blocks.
    columns = [np.arange(m), np.linspace(-1.0, 1.0, m), ["s"] * m]
    header = ["t", "x", "s"]
    path = write_csv(str(tmp_path / "a.csv"), header, columns=columns)
    ref = join_write_csv(str(tmp_path / "ref.csv"), header, columns)
    assert read_bytes(path) == read_bytes(ref)


def test_generator_rows_are_written(tmp_path):
    path = write_csv(str(tmp_path / "g.csv"), ["a", "b"], ([i, i / 2] for i in range(3)))
    assert read_bytes(path) == b"a,b\n0,0.0\n1,0.5\n2,1.0\n"
    with pytest.raises(ValueError, match="row width"):
        write_csv(str(tmp_path / "bad.csv"), ["a", "b"], ([i] for i in range(3)))


@pytest.mark.parametrize("cell", ["x,y", 'say "hi"', "two\nlines", "cr\r"])
def test_cell_with_csv_special_character_rejected(tmp_path, cell):
    with pytest.raises(ValueError, match=r"column 'b', row 1: "):
        write_csv(str(tmp_path / "a.csv"), ["a", "b"], [[0, "ok"], [1, cell]])
    assert list(tmp_path.iterdir()) == []


def test_failed_streamed_write_keeps_the_old_file(tmp_path):
    # The bad cell sits in the second block, after the first has been
    # written to the temporary file.
    path = str(tmp_path / "a.csv")
    write_csv(path, ["x"], [[1.5]])
    before = read_bytes(path)
    m = runio.CSV_BLOCK + 10
    labels = ["ok"] * m
    labels[-1] = "a,b"
    with pytest.raises(ValueError, match=f"column 'label', row {m - 1}: "):
        write_csv(path, ["t", "label"], columns=[np.arange(m), labels])
    assert read_bytes(path) == before
    assert tmp_files(tmp_path) == []


def traced_peak(path: str, columns) -> int:
    tracemalloc.start()
    try:
        write_csv(path, ["a", "b", "c", "d"], columns=columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_memory_does_not_grow_with_rows(tmp_path):
    # A block of 4 float columns takes about 120 B per cell while it is
    # formatted; the whole file never is held at once.
    rng = np.random.default_rng(1)
    small = [rng.standard_normal(50_000) for _ in range(4)]
    large = [rng.standard_normal(400_000) for _ in range(4)]
    block_bytes = runio.CSV_BLOCK * 4 * 128
    peak_small = traced_peak(str(tmp_path / "small.csv"), small)
    peak_large = traced_peak(str(tmp_path / "large.csv"), large)
    assert peak_large < 3 * block_bytes
    assert peak_large <= 1.1 * peak_small
