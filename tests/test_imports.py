"""The package runs on the standard library alone.

Every import in src/binoids is either relative (another module of the
package) or names a standard-library module; third-party packages are
for the tests only.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "binoids"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_only_standard_library_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [
        "%s:%d imports %s" % (path.name, lineno, name)
        for path in modules
        for lineno, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
