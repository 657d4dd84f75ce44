"""No module of the package or of the tests imports a name it never uses,
no function of the package binds a name it never reads, no function of
the package is called only by the tests, and only ``tensor._record``
builds an autodiff tape node."""

import ast
from collections import Counter
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


PERFBENCH_FILES = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _namings(nodes) -> Counter:
    """How often each name appears as a name, an attribute or a string constant."""
    found = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found[node.id] += 1
            elif isinstance(node, ast.Attribute):
                found[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found[node.value] += 1
    return found


def uncalled_functions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions, and class methods without double underscores, of
    the `defining` sources (file name -> text) that no source names outside
    the function's own definition."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    named = _namings([*trees.values(), *(ast.parse(text) for text in others)])
    found = []
    for file, tree in trees.items():
        defs = [(node, node.name) for node in tree.body if isinstance(node, FUNCTIONS)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [
                (node, f"{cls.name}.{node.name}") for node in cls.body
                if isinstance(node, FUNCTIONS) and "__" not in node.name
            ]
        for node, qualified in defs:
            if named[node.name] == _namings([node])[node.name]:
                found.append(f"{file}:{node.lineno}: {qualified}")
    return found


def test_the_checker_finds_a_function_only_tests_call():
    source = (
        "def used():\n    return unused_helper\n"
        "def unused():\n    return 'unused'\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class ParamStore:\n"
        "    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"
        "    def traced(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "used()\nParamStore().method()\n"
    )
    assert uncalled_functions({"a.py": source}, ["getattr(ParamStore, 'traced')"]) == [
        "a.py:3: unused",
        "a.py:5: recursive",
        "a.py:14: ParamStore.orphan",
    ]


def test_no_function_is_called_only_by_the_tests():
    others = [path.read_text() for path in PERFBENCH_FILES]
    assert uncalled_functions({path.name: path.read_text() for path in SRC_FILES}, others) == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def tape_builders(source: str) -> list[str]:
    """Code outside ``_record`` that gives a Tensor parents or a backward
    function, by constructor argument or attribute assignment (the Tensor
    class itself excepted), and calls of ``_tracking`` outside ``_record``
    and ``gru_sequence``."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _callee(node) == "Tensor":
                linked = len(node.args) > 2 or any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                    kw.arg in (None, "parents", "backward") for kw in node.keywords
                )
                if linked and scope != "_record":
                    found.append((node.lineno, f"line {node.lineno}: {scope} builds a tape node"))
            elif isinstance(node, ast.Call) and _callee(node) == "_tracking":
                if scope not in ("_record", "gru_sequence"):
                    found.append((node.lineno, f"line {node.lineno}: {scope} calls _tracking"))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if getattr(sub, "attr", None) in ("_parents", "_backward") and scope != "Tensor":
                            found.append((node.lineno, f"line {node.lineno}: {scope} builds a tape node"))
    return [entry for _, entry in sorted(found)]


def test_the_checker_finds_a_tape_node_built_outside_record():
    source = (
        "def _record(data, parents, backward):\n"
        "    if _tracking(parents):\n"
        "        return Tensor(data, True, parents, backward)\n"
        "    return Tensor(data)\n"
        "def gru_sequence(x):\n"
        "    if not _tracking((x,)):\n"
        "        return Tensor(x, requires_grad=False)\n"
        "    return _record(x, (x,), None)\n"
        "def square(a):\n"
        "    if not tt._tracking((a,)):\n"
        "        return tt.Tensor(a)\n"
        "    return tt.Tensor(a, True, backward=f, parents=(a,))\n"
        "def relu(a, rest):\n"
        "    out = Tensor(a, *rest)\n"
        "    out._parents, y = (a,), 1\n"
        "    return out\n"
        "class Tensor:\n"
        "    def __init__(self, parents):\n"
        "        self._parents = parents\n"
    )
    assert tape_builders(source) == [
        "line 10: square calls _tracking",
        "line 12: square builds a tape node",
        "line 14: relu builds a tape node",
        "line 15: relu builds a tape node",
    ]


@pytest.mark.parametrize("path", SRC_FILES, ids=[p.name for p in SRC_FILES])
def test_only_record_builds_a_tape_node(path):
    assert tape_builders(path.read_text()) == []
