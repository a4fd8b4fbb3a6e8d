import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sweepdescent"


def test_every_imported_name_is_used():
    # No linter runs on this tree, so this catches the imports a deletion
    # leaves behind. __init__.py imports to re-export and is skipped.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def _names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_private_helper_is_used_in_the_package():
    # A module-level _helper that only tests call is dead code. Uses inside
    # the helper's own body (recursion) do not count.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    uses = Counter(name for tree in trees for name in _names(tree))
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")
            and uses[node.name] == _names(node).count(node.name)]
    assert not dead, dead
