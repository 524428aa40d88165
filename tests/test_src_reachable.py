"""Every function, class, method and module-level constant defined in
`src/ncpe` must be referenced by name somewhere in the package, outside
`__init__.py`, so that code only the tests call lives in
`tests/reference.py` instead, and no constant outlives its last reader.

Dunder methods and names and click command callbacks are skipped: Python
and click use them.  The check is by name only, so it is coarse: a
method is reached when any attribute or variable of that name is read
anywhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncpe"


def _is_command_callback(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constants(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level assignments."""
    targets = [t for stmt in tree.body if isinstance(stmt, ast.Assign) for t in stmt.targets]
    targets += [stmt.target for stmt in tree.body if isinstance(stmt, ast.AnnAssign)]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def unreferenced_definitions(src: Path = SRC) -> list[str]:
    """`module:name` for each definition and module-level constant that no
    name or attribute in the package reads."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for module, tree in trees.items():
        defined += [(module, name) for name in _constants(tree) if not _is_dunder(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                if not (_is_dunder(node.name) or _is_command_callback(node)):
                    defined.append((module, node.name))
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_every_definition_is_reached_from_the_package():
    assert unreferenced_definitions() == []


def test_finds_an_unreferenced_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import orphan\n")
    (tmp_path / "m.py").write_text(
        "import click\n\n"
        "def used():\n    return 1\n\n"
        "def orphan():\n    return used()\n\n"
        "class C:\n    def __len__(self):\n        return 0\n\n"
        "    def method(self):\n        return C\n\n"
        "@click.group()\ndef main():\n    pass\n\n"
        "@main.command()\ndef cmd():\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["m:orphan", "m:method"]


def test_finds_an_unreferenced_constant(tmp_path):
    (tmp_path / "m.py").write_text(
        "CAP = 9\nLOW: int = 1\nUSED, LEFT = 2, 3\n__all__ = []\n\n"
        "def f():\n    return USED + LOW\n\n"
        "f()\n")
    assert unreferenced_definitions(tmp_path) == ["m:CAP", "m:LEFT"]
