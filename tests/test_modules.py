"""Module boundaries: no module of the package imports a private name
(one leading underscore) of a sibling; dunders such as __version__ are
public."""

import ast
from pathlib import Path

import dirac_toa

PACKAGE = Path(dirac_toa.__file__).parent


def private_imports(path: Path) -> list[str]:
    """'module:line name' for every private name path imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "dirac_toa":
            continue  # another package
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []
