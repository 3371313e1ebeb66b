import os

import pytest

import nhcz.reports
from nhcz.geometry import generate_family
from nhcz.reports import canonical_json, write_csv_atomic, write_json_atomic

FAM = generate_family(seed=1, count=3, d=1.2, packing_target=4.0, k_range=(2, 4))

WRITERS = {
    "family_save": lambda path: FAM.save(path),
    "text": lambda path: write_json_atomic(path, {"new": "contents"}),
    "csv": lambda path: write_csv_atomic(path, ["a", "b"], [[1, 2], [3, 4]]),
}


class _DiskFull:
    """File handle that writes half of the first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_text("old contents\n")
    real_fdopen = os.fdopen
    monkeypatch.setattr(nhcz.reports.os, "fdopen", lambda fd, *a, **k: _DiskFull(real_fdopen(fd, *a, **k)))
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](path)
    monkeypatch.undo()
    assert path.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_saved_family_is_canonical_json(tmp_path):
    path = tmp_path / "family.json"
    FAM.save(path)
    assert path.read_bytes() == canonical_json(FAM.to_json_dict()).encode()
