"""The package's import graph, read from the source with ``ast``.

Every import of one ``dcinv`` module by another is made once, at module
level, so that the modules form a graph without cycles that a reader can
follow from the top of each file; and it names only public names, so that
each shared helper has one public home. The lazy ``scipy`` imports are not
package imports and stay where they are used (a cold CLI start skips scipy).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dcinv"
MODULES = sorted(SRC.glob("*.py"))


def package_imports(path):
    """(is at module level, imported names, line) of each relative import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    return [(id(node) in top, [alias.name for alias in node.names], node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0]


def test_the_package_has_modules():
    assert {"cli.py", "config.py", "core.py", "models.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_are_at_module_level(path):
    nested = [line for top, _, line in package_imports(path) if not top]
    assert not nested, f"{path.name}: relative imports inside a function or class at lines {nested}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_name_no_private_name(path):
    private = [(line, name) for _, names, line in package_imports(path) for name in names
               if name.startswith("_") and name != "__version__"]
    assert not private, f"{path.name}: private names imported (line, name): {private}"
