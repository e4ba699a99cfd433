"""The package's public names: its version and what a star import brings."""

import re
import types
from pathlib import Path

import icsp

ROOT = Path(__file__).resolve().parent.parent


def test_the_version_is_the_one_pyproject_declares():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert icsp.__version__ == re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)


def test_a_star_import_brings_the_public_names_and_no_submodule():
    names: dict = {}
    exec("from icsp import *", names)
    del names["__builtins__"]
    assert [n for n, value in names.items() if isinstance(value, types.ModuleType)] == []
    assert {"Engine", "IsetStore", "Union", "Inconsistency", "parse_element"} <= names.keys()
