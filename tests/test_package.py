"""The package's export list against what the package namespace binds, and
the imports of its modules against the names they use."""

import ast
import inspect
from pathlib import Path

import chromaposet


def test_export_list_matches_the_package_namespace():
    exported = chromaposet.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(chromaposet, name)]
    assert not missing, f"__all__ names nothing bound: {missing}"
    public = {
        name
        for name, value in vars(chromaposet).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert not public - set(exported), f"public but not in __all__: {sorted(public - set(exported))}"


def test_modules_use_every_name_they_import():
    """No linter ships with the project, so this stands in for its
    unused-import rule.  ``__init__`` is left out: it only re-exports."""
    unused = []
    for path in sorted(Path(chromaposet.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used: {unused}"
