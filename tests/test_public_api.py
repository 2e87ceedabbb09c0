"""The package's public names: `__all__` against what `__init__` imports."""

import ast
import inspect

import recforest


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(inspect.getsource(recforest))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(recforest.__all__) == len(set(recforest.__all__))
    assert all(hasattr(recforest, name) for name in recforest.__all__)
    assert set(recforest.__all__) == {name for name in imported if not name.startswith("_")}
