"""Every public top-level function and class in src/melsynth has a caller.

A caller is program code outside the definition: a module of src/melsynth
(the package ``__init__`` files only re-export), perfbench/ or tools/. A
reference is an identifier, an attribute name (numpy's and math's aside) or
a "module:attribute" string, the form perfbench's span targets take. Tests
do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melsynth"


def references(tree, skip=None):
    """Names `tree` refers to outside the subtree `skip` and its docstrings."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or (isinstance(node, ast.Expr)
                            and isinstance(node.value, ast.Constant)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("np", "math")):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and re.fullmatch(r"[\w.]+:[\w.]+", str(node.value)):
            names.update(re.split(r"[.:]", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller():
    paths = [p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    called = {p: references(tree) for p, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name in references(tree, skip=node):
                continue
            if not any(node.name in names for p, names in called.items() if p != path):
                unused.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert not unused, "public definitions nothing calls: " + ", ".join(unused)
