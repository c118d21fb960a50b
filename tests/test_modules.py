"""Module boundaries: no module of the package imports a private name
(one leading underscore) of a sibling; dunders such as __version__ are
public.  No dead code: every top-level function and class of the package
is named somewhere outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

import dirac_toa

PACKAGE = Path(dirac_toa.__file__).parent
ROOT = Path(__file__).resolve().parent.parent  # the source checkout


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


def names(node: ast.AST) -> Counter:
    """How often each name occurs under node: as an identifier, an attribute,
    an imported name or a string constant (getattr, monkeypatch.setattr)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def unused_definitions(package: Path, readers: list[Path]) -> list[str]:
    """'module:line name' for every top-level function or class of package
    that no file of readers (the package's own modules among them) names
    outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in readers}
    total = sum((names(tree) for tree in trees.values()), Counter())
    return [f"{path.name}:{node.lineno} {node.name}"
            for path in sorted(package.glob("*.py"))
            for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and total[node.name] == names(node)[node.name]]


def test_no_top_level_definition_is_dead_code():
    package = ROOT / "src" / "dirac_toa"
    readers = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(readers) > 30
    assert unused_definitions(package, readers) == []
