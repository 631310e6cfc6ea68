"""The package's export list against what the package namespace binds."""

import inspect

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
