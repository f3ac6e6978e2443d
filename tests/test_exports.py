import ast
import importlib
from pathlib import Path

import horizonrisk


def test_all_names_resolve_and_the_package_imports_only_listed_names():
    """Every name in a submodule's ``__all__`` exists, and every name the
    package imports from a submodule with ``__all__`` is listed there."""
    init = Path(horizonrisk.__file__)
    for path in sorted(init.parent.glob("*.py")):
        module = importlib.import_module(f"horizonrisk.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.stem}.{name}"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"horizonrisk.{node.module}")
            listed = getattr(module, "__all__", None)
            for alias in node.names:
                assert listed is None or alias.name in listed, \
                    f"{node.module}.{alias.name}"
