"""The package's public namespace."""

import inspect

import sparsemix


def test_all_names_exactly_the_imported_functions_and_classes():
    # the relative imports also bind the submodules; those are not exports
    imported = {name for name, value in vars(sparsemix).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert all(inspect.isfunction(getattr(sparsemix, name)) or inspect.isclass(getattr(sparsemix, name))
               for name in imported)
    assert len(sparsemix.__all__) == len(set(sparsemix.__all__))
    assert set(sparsemix.__all__) == imported | {"__version__"}
