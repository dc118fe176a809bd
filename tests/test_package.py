import ast
import types
from pathlib import Path

import recipeff


def test_package_exports_what_its_users_import():
    # the acceptance gate's names, plus `analyze` of the README quick start
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "recipeff"
                for alias in node.names}
    public = {name for name, value in vars(recipeff).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported | {"analyze"}
    assert len(public) == 26
