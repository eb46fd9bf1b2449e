"""The examples in the module docstrings and in README.md run as doctests."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import binoids

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["binoids"] + [m.name for m in pkgutil.iter_modules(binoids.__path__, "binoids.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_module_docstrings_carry_examples():
    assert sum(doctest.testmod(importlib.import_module(n)).attempted for n in MODULES) > 0


def test_readme_python_blocks():
    text = README.read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, "README block %d" % i, str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0 and result.failed == 0
