"""The README's "Library use" example runs as printed, the package root
exports exactly what it imports from `pulsom`, plus the exception types and
`__version__`, and the keys README calls retired are gone from the config."""

import ast
import re
import types
from pathlib import Path

import pulsom
from pulsom import errors
from pulsom.cli import main
from pulsom.config import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_code() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    code = compile(library_use_code(), f"{README.name} (Library use)", "exec")
    exec(code, {"__name__": "readme_example"})
    average = float(capsys.readouterr().out)
    assert 0.0 <= average <= 100.0


def test_package_root_is_the_example_imports_and_the_errors():
    imported = {alias.name for node in ast.walk(ast.parse(library_use_code()))
                if isinstance(node, ast.ImportFrom) and node.module == "pulsom"
                for alias in node.names}
    error_types = {name for name, v in vars(errors).items()
                   if isinstance(v, type) and issubclass(v, Exception)}
    exported = {name for name, v in vars(pulsom).items()
                if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert imported
    assert exported == imported | error_types
    assert pulsom.__version__


def retired_keys() -> list[str]:
    """The backticked `section.key` names of README's Retired keys paragraph."""
    paragraph = README.read_text().split("\nRetired keys:", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([a-z]+\.[a-z_]+)`", paragraph)


def test_readme_retired_keys_are_unknown_to_train(tmp_path, capsys):
    keys = retired_keys()
    assert {"stdp.flip_branches", "ssom.s_radius"} <= set(keys)
    for key in keys:
        assert key not in KEYS
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"run.model = ssom\n{key} = 1.0\nrun.outdir = {tmp_path / 'out'}\n")
        assert main(["train", "--config", str(cfg)]) == 2, key
        assert f"{cfg}:2: unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
