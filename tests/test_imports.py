"""No module of the package or of the tests imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "itmatch").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_checker_finds_an_unused_import():
    source = (
        "import os\nimport numpy as np\nfrom a import b, c\nfrom d import e\n"
        "__all__ = ['e']\n"
        "def f(x: c) -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


SRC_FILES = sorted((ROOT / "src" / "itmatch").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_scope(body: list[ast.AST]) -> list[ast.AST]:
    """The nodes of a function body outside any function or class nested in it."""
    nodes, stack = [], list(body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def unused_bindings(source: str) -> list[str]:
    """Function parameters never read in their body, and local names assigned
    but never read; ``_`` is exempt, and a read in a nested function counts."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, FUNCTIONS):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        read = {
            node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        own = _own_scope(body)
        read |= {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        a = func.args
        params = {arg.arg: func.lineno for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg}
        stored = {node.id: node.lineno for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        name = getattr(func, "name", "<lambda>")
        for kind, bound in (("parameter", params), ("local", stored)):
            found += [
                (line, f"line {line}: {name}: {kind} {var}") for var, line in bound.items()
                if var != "_" and var not in read and (kind == "parameter" or var not in params)
            ]
    return [entry for _, entry in sorted(found)]


def test_the_checker_finds_an_unused_binding():
    source = (
        "def f(x, y, _):\n"
        "    grid, loss = g(x)\n"
        "    for i, _ in pairs:\n"
        "        total = i\n"
        "    def inner(z):\n"
        "        return loss\n"
        "    return inner\n"
        "h = lambda p, q: p\n"
    )
    assert unused_bindings(source) == [
        "line 1: f: parameter y",
        "line 2: f: local grid",
        "line 4: f: local total",
        "line 5: inner: parameter z",
        "line 8: <lambda>: parameter q",
    ]


@pytest.mark.parametrize("path", SRC_FILES, ids=[p.name for p in SRC_FILES])
def test_no_unused_bindings(path):
    assert unused_bindings(path.read_text()) == []
