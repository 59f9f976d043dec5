import os
import stat

import pytest

from gibbsrwm.runio import read_csv, write_csv, write_json


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
