import ast
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
