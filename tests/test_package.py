"""The package's export list against what the package namespace binds, the
imports of its modules against the names they use, its definitions
against the code that names them, and README's library example against
the values it shows."""

import ast
import builtins
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

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


def test_exports_resolve_on_first_use():
    """The package binds its exports lazily (PEP 562): each name in
    ``__all__`` comes through ``__getattr__`` from its module, ``dir`` lists
    every one, a star import binds them all, and an unknown name is an
    AttributeError, as it would be without the hook."""
    for name in chromaposet.__all__:
        assert chromaposet.__getattr__(name) is getattr(chromaposet, name), name
    assert dir(chromaposet) == chromaposet.__dir__()
    assert set(chromaposet.__all__) <= set(chromaposet.__dir__())
    namespace = {}
    exec("from chromaposet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(chromaposet.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chromaposet.__getattr__("no_such_name")
    with pytest.raises(AttributeError):
        getattr(chromaposet, "no_such_name")


def test_importing_the_package_loads_only_the_errors():
    code = "import sys, chromaposet; print(sorted(m for m in sys.modules if 'chromaposet' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(chromaposet.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout == "['chromaposet', 'chromaposet.errors']\n"


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


def _names(tree) -> Counter:
    """How often each name is used, attribute names and imported names
    included."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _named_only_where_defined(folders, skip=()):
    """The module-level functions and classes of the package that no module
    under ``folders``, outside the paths in ``skip``, names outside their
    own definition."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "chromaposet"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in folders
        for path in sorted((root / folder).rglob("*.py"))
        if path.relative_to(root).as_posix() not in skip
    }
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(package.glob("*.py"))
        if path in trees
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and used[node.name] == _names(node)[node.name]
    ]


def test_every_definition_is_named_somewhere():
    """A module-level function or class of the package that nothing in
    ``src/``, ``tests/`` or ``perfbench/`` names, outside its own
    definition, is dead code."""
    dead = _named_only_where_defined(("src", "tests", "perfbench"))
    assert not dead, f"defined but never named: {dead}"


def test_no_definition_is_named_only_by_tests():
    """A module-level function or class of the package must be named by
    another module of ``src/`` (the ``__init__`` re-export aside) or by
    ``perfbench/``; one that only tests name belongs in those tests."""
    skip = ("src/chromaposet/__init__.py",)
    test_only = _named_only_where_defined(("src", "perfbench"), skip)
    assert not test_only, f"named only by tests: {test_only}"


def test_no_assert_in_the_package():
    """``python -O`` strips asserts, so an invariant the package relies on
    raises ``InternalInvariantError`` instead, and a fact about a fixed
    construction is checked in the tests."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(chromaposet.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert in library code: {found}"


def test_no_module_reads_argparse_internals():
    """The CLI reads its flags from its own table, so no module names a
    private part of argparse: a ``_`` name of the module, or a parser's
    ``_actions`` or ``_option_string_actions``."""
    found = []
    for path in sorted(Path(chromaposet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                node.attr in ("_actions", "_option_string_actions")
                or node.attr.startswith("_") and ast.unparse(node.value) == "argparse"
            ):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"argparse internals read: {found}"


def test_one_exception_type_per_exit_code():
    """``errors.py`` defines the three exception types: ``DomainError``
    (exit 1), ``DslParseError`` (exit 2) and ``InternalInvariantError`` (a
    bug).  No other module defines an exception, except the CLI's private
    ``UsageError`` (exit 2), so a message, not a class, names the fault.
    A class is an exception when one of its bases is a builtin exception
    or a class already found to be one."""
    bases = {}
    for path in sorted(Path(chromaposet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = {ast.unparse(b).rpartition(".")[2] for b in node.bases}
    names = {n for n, v in vars(builtins).items() if inspect.isclass(v) and issubclass(v, BaseException)}
    found = set()
    while new := {q for q, b in bases.items() if b & names} - found:
        found |= new
        names |= {q.partition(".")[2] for q in new}
    assert sorted(found) == [
        "cli.UsageError",
        "errors.DomainError",
        "errors.DslParseError",
        "errors.InternalInvariantError",
    ]
    assert bases["errors.DslParseError"] == {"DomainError"}


def _leading_text(comment: str) -> str:
    """A comment's text up to its first comma outside brackets."""
    text, depth = comment.lstrip("#").strip(), 0
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if ch == "," and depth == 0:
            return text[:i]
    return text


def test_readme_library_block_runs():
    """The python block under README's "Library" heading runs as shown,
    and every expression whose comment starts with a Python literal equals
    that literal."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    source = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shown = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            try:
                shown[token.start[0]] = ast.literal_eval(_leading_text(token.string))
            except (SyntaxError, ValueError):
                pass  # prose, not a value
    namespace, checked = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        lines = [line for line in range(node.lineno, node.end_lineno + 1) if line in shown]
        if isinstance(node, ast.Expr) and lines:
            assert eval(code, namespace) == shown[lines[-1]], code
            checked.append(code)
        else:
            exec(code, namespace)
    assert checked, "no expression in the block shows its value"


def test_readme_layout_names_every_module():
    """README's "Layout" block names each module of the package, the
    ``__init__`` re-export and the ``__main__`` entry aside."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("```", 2)[1]
    listed = set(re.findall(r"^  (\S+\.py) ", layout, re.MULTILINE))
    modules = {p.name for p in (root / "src" / "chromaposet").glob("*.py")} - {"__init__.py", "__main__.py"}
    assert sorted(modules - listed) == []
