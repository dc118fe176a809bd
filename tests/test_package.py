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


def test_every_subcommand_runs_warning_free(tmp_path):
    # the test settings turn warnings into errors only in process: each
    # subcommand runs under `python -W error`, prints no warning and exits
    # with its documented code; verify and example-ee1 exit 1 on the one
    # check that is red by design (README, "Known failure")
    env = {**os.environ, "PYTHONPATH": str(Path(recipeff.__file__).parents[1])}
    m, w = tmp_path / "m.csv", tmp_path / "w.csv"
    m.write_text("1,2,4\n0.5,1,2\n0.25,0.5,1\n", encoding="utf-8")
    w.write_text("1,2,3\n", encoding="utf-8")
    runs = ((["analyze", str(m)], 0, b'"efficient": true'),
            (["analyze", str(m), "--vector", str(w)], 0, b'"efficient": false'),
            (["z", "--n", "4", "--x", "0.2", "--y", "2", "--z", "0.5", "--a", "1"], 0, b"{"),
            (["z", "--n", "5", "--x", "0.2", "--y", "2", "--z", "0.5", "--a", "1.5"], 0, b"{"),
            (["sweep", "--n", "5"], 0, b"n,x,y,z,a,"),
            (["extend", str(m)], 0, b"{"),
            (["extend", str(m), "--conjugate-diag", "1,2,3"], 0, b"{"),
            (["verify"], 1, b"FAIL: 28/29 checks passed"),
            (["example-ee1"], 1, b"9/10 steps passed"))
    for args, code, text in runs:
        run = subprocess.run([sys.executable, "-W", "error", "-m", "recipeff", *args],
                             capture_output=True, timeout=120, env=env)
        assert (run.returncode, run.stderr) == (code, b""), args
        assert text in run.stdout, args


def test_a_closed_output_pipe_ends_quietly():
    # the reader stops after the header; the CSV (2,401 rows, about 135 kB)
    # outgrows the pipe buffer, so the writer meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(Path(recipeff.__file__).parents[1])}
    args = ["sweep", "--n", "5", "--axes", "0.25,0.5,1,2,4,8,16"]
    with subprocess.Popen([sys.executable, "-W", "error", "-m", "recipeff", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"n,x,y,z,a,")
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (141, b"")


def test_every_private_module_name_is_read_in_the_package():
    # a module-level private function, class or constant that no module of
    # the package reads is dead code, such as a helper a half-done deletion
    # left behind; tests and the bench do not count as readers
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(recipeff.__file__).parent.glob("*.py"))}
    defined = set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for t in targets for leaf in ast.walk(t)
                         if isinstance(leaf, ast.Name)]
            else:
                continue
            defined.update((file, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    assert len(defined) >= 60
    assert sorted(f"{file}: {name}" for file, name in defined if name not in read) == []


def test_numpy_is_the_only_runtime_dependency():
    # scipy, networkx and mpmath are test-only: the package imports the
    # standard library, numpy and its own modules, and nothing else
    imported = set()
    for path in sorted(Path(recipeff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}
