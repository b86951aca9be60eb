"""Fixtures shared by the test files."""

import pytest

from cartanspaces import catalog


@pytest.fixture
def planted_tables(tmp_path, monkeypatch):
    """`plant(old, new, name)` replaces `old`, which must be there, once by
    `new` in the table file `name` of a copy of the tables in tmp_path,
    points CARTAN_DATA_DIR at the copy and returns its directory.  The
    first call makes the copy and later calls edit it further; each call
    drops the loaded catalog, so the next read sees every edit, and the
    catalog loaded before the test is back after it."""
    def plant(old: str = "", new: str = "", name: str = "t14.tbl"):
        if not any(tmp_path.iterdir()):
            for f in catalog.get_catalog().data_dir.iterdir():
                (tmp_path / f.name).write_text(f.read_text())
        edited = tmp_path / name
        assert old in edited.read_text()
        edited.write_text(edited.read_text().replace(old, new, 1))
        monkeypatch.setenv("CARTAN_DATA_DIR", str(tmp_path))
        monkeypatch.setattr(catalog, "_CATALOG", None)
        monkeypatch.setattr(catalog, "_CATALOG_ENV", None)
        return tmp_path
    return plant
