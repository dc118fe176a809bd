import ast
import os
import subprocess
import sys
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


def test_python_m_recipeff_runs_the_cli(tmp_path):
    # the same bytes and exit code as the `recipeff.cli` module
    env = {**os.environ, "PYTHONPATH": str(Path(recipeff.__file__).parents[1])}
    for args in (["z", "--n", "5", "--x", "0.2", "--y", "2", "--z", "0.5", "--a", "1.5"],
                 ["analyze", str(tmp_path / "missing.csv")]):
        package, module = (subprocess.run([sys.executable, "-m", name, *args], capture_output=True,
                                          timeout=60, env=env)
                           for name in ("recipeff", "recipeff.cli"))
        assert (package.returncode, package.stdout, package.stderr) == (
            module.returncode, module.stdout, module.stderr)
        assert package.stdout.startswith(b"{") if args[0] == "z" else package.returncode == 2
