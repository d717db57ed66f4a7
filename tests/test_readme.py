"""The README's Quick tour runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed
