"""Reachability fence: every top-level function and class in ``src/ckkslt``
has a caller that is not a test.

A name counts as reached when it is used in its own module outside its own
definition, imported or read as a module attribute (``ck.rotate_many``) by
another ``src/`` module or by ``benchmark/*.py``, listed in the benchmark's
``TRACED`` table, or named as a console script in ``pyproject.toml``. Every
lookup is module-qualified and resolved through re-exports (``ckks.ntt`` is
``ring.ntt``), so a local of the same name (``datapath``'s ``rotate``
closure) reaches nothing. Annotations do not count: a class that only
annotates is still unused.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "ckkslt"

# kept with no caller outside tests, one reason each
ALLOWED = {
    "permutation.target": "criterion 6 checks the per-field destination circuit against the schedule",
    "permutation.bank_map": "criterion 6 checks that a rotation's bank map is address-independent",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _module_of(node: ast.ImportFrom, importer: str | None) -> str | None:
    """The ckkslt module an import reads from, or None for any other package."""
    if node.level == 1 and importer is not None:
        return node.module
    if node.level == 0 and node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


class _Module:
    """One file's top-level definitions, its imported names and its module aliases."""

    def __init__(self, tree: ast.Module, name: str | None):
        self.tree = tree
        self.defs = {n.name for n in tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        self.names: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        self.aliases: dict[str, str] = {}  # local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _module_of(node, name)
                for a in node.names:
                    local = a.asname or a.name
                    if source is not None:
                        self.names[local] = (source, a.name)
                    elif (node.level == 1 and name is not None and node.module is None
                          or node.level == 0 and node.module == PACKAGE):
                        self.aliases[local] = a.name
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith(PACKAGE + ".") and a.asname:
                        self.aliases[a.asname] = a.name[len(PACKAGE) + 1:]


def _uses(tree: ast.AST):
    """Name and Attribute nodes, skipping annotations."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


def _traced(run_py: Path) -> dict[str, list[str]]:
    # read as tests/test_benchmark_contract.py reads it, without importing run.py
    for node in _parse(run_py).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    return {}


def reachability(root: Path = ROOT) -> tuple[dict[str, set[str]], set[str]]:
    """Every module's top-level definitions under ``root``, and the qualified names reached."""
    src = {p.stem: _Module(_parse(p), p.stem) for p in sorted((root / "src" / PACKAGE).glob("*.py"))}
    reached: set[str] = set()

    def reach(module: str, name: str, seen=()):
        # follow re-exports to the defining module
        m = src.get(module)
        if m is None or (module, name) in seen:
            return
        if name in m.defs:
            reached.add(f"{module}.{name}")
        elif name in m.names:
            reach(*m.names[name], seen=(*seen, (module, name)))

    def reach_from(m: _Module, own: str | None):
        for target in m.names.values():
            reach(*target)
        for stmt in m.tree.body:
            for node in _uses(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in m.aliases:
                    reach(m.aliases[node.value.id], node.attr)
                elif own is not None and isinstance(node, ast.Name) and node.id in m.defs \
                        and node.id != getattr(stmt, "name", None):
                    reach(own, node.id)

    for name, m in src.items():
        reach_from(m, name)
    bench = root / "benchmark"
    for path in sorted(bench.glob("*.py")):
        reach_from(_Module(_parse(path), None), None)
    for module, fns in _traced(bench / "run.py").items():
        for fn in fns:
            reach(module, fn)
    # console scripts, the one kind of line in pyproject.toml that names a module:function
    for module, fn in re.findall(rf'^[\w-]+ = "{PACKAGE}\.(\w+):(\w+)"$',
                                 (root / "pyproject.toml").read_text(), re.M):
        reach(module, fn)
    return {name: m.defs for name, m in src.items()}, reached


def test_every_src_definition_has_a_caller_outside_tests():
    defs, reached = reachability()
    unreached = sorted(f"{m}.{n}" for m, names in defs.items() for n in names
                       if f"{m}.{n}" not in reached and f"{m}.{n}" not in ALLOWED)
    assert unreached == []


def test_allowlist_names_only_defined_unreached_names():
    defs, reached = reachability()
    for qualified, reason in ALLOWED.items():
        module, name = qualified.split(".")
        assert name in defs[module] and qualified not in reached and reason


def test_fence_is_module_qualified(tmp_path):
    # a local ``rotate`` reaches nothing, while a module alias, a re-export
    # and a traced name reach their definitions
    pkg = tmp_path / "src" / PACKAGE
    pkg.mkdir(parents=True)
    (tmp_path / "benchmark").mkdir()
    (pkg / "a.py").write_text("def rotate():\n    return rotate()\n\n\n"
                              "def helper():\n    pass\n\n\ndef traced():\n    pass\n")
    (pkg / "b.py").write_text("from . import a as x\nfrom .a import helper as h\n\n\n"
                              "def go(k: x.rotate):\n    rotate = h\n    return rotate\n")
    (pkg / "cli.py").write_text("from . import b\n\n\ndef main():\n    pass\n")
    (tmp_path / "benchmark" / "run.py").write_text(
        "from ckkslt.b import go\nTRACED = {'a': ['traced']}\n")
    (tmp_path / "pyproject.toml").write_text(
        '[project.scripts]\nckkslt = "ckkslt.cli:main"\n')
    defs, reached = reachability(tmp_path)
    assert defs == {"a": {"rotate", "helper", "traced"}, "b": {"go"}, "cli": {"main"}}
    assert reached == {"a.helper", "a.traced", "b.go", "cli.main"}
