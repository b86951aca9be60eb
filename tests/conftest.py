"""Fixtures shared by the test files."""

import pytest

from cartanspaces.catalog import get_catalog


@pytest.fixture
def planted_tables(tmp_path, monkeypatch):
    """`plant(old, new, name)` copies the tables to tmp_path, replaces `old`,
    which must be there, once by `new` in the table file `name`, points
    CARTAN_DATA_DIR at the copy and returns its directory."""
    def plant(old: str = "", new: str = "", name: str = "t14.tbl"):
        for f in get_catalog().data_dir.iterdir():
            (tmp_path / f.name).write_text(f.read_text())
        edited = tmp_path / name
        assert old in edited.read_text()
        edited.write_text(edited.read_text().replace(old, new, 1))
        monkeypatch.setenv("CARTAN_DATA_DIR", str(tmp_path))
        return tmp_path
    return plant
