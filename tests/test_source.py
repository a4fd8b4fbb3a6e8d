import ast
import os
import subprocess
import sys
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


def _calls(trees):
    """Per called name: (positional arguments, keyword arguments by name) of
    every call. A *args call passes every position and a **kwargs call every
    name (the keyword None)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(
                (node.args, {k.arg: k.value for k in node.keywords}))
    return calls


_NOT_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _passed(index, param, default, args, keywords) -> bool:
    """Whether a call may override a defaulted parameter: it passes the
    parameter (or *args / **kwargs that may hold it), and not as a literal
    equal to the default's literal."""
    if None in keywords or (index is not None
                            and any(isinstance(a, ast.Starred) for a in args)):
        return True
    if index is not None and index < len(args):
        arg = args[index]
    elif param.arg in keywords:
        arg = keywords[param.arg]
    else:
        return False
    value = _literal(default)
    return value is _NOT_LITERAL or _literal(arg) != value


def _defaulted(tree):
    """(function, names it is called by, index, parameter, default) for every
    defaulted parameter of every function in the tree. An __init__ is also
    called by its class name. Calls of a method pass no self, so a
    positional index counts from the first parameter after self; a
    keyword-only parameter has index None."""
    owner = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        names = {node.name} | ({owner[id(node)]} if node.name == "__init__" else set())
        positional = node.args.posonlyargs + node.args.args
        shift = int(id(node) in owner)
        first = len(positional) - len(node.args.defaults)
        out += [(node.name, names, i - shift, p, node.args.defaults[i - first])
                for i, p in enumerate(positional) if i >= first]
        out += [(node.name, names, None, p, d)
                for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    # A default that no call in the package, the scripts or the tests ever
    # overrides is a constant in disguise; a call that passes the default's
    # own literal value overrides nothing. Calls match by name, loosely: a
    # method by its attribute name, an __init__ also by its class name.
    root = SRC.parents[1]
    calls = _calls(ast.parse(path.read_text(encoding="utf-8"))
                   for folder in ("src", "scripts", "tests")
                   for path in sorted((root / folder).rglob("*.py")))
    unset = [f"{path.name}: {func}({param.arg})"
             for path in sorted(SRC.glob("*.py"))
             for func, names, index, param, default in _defaulted(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(_passed(index, param, default, args, keywords)
                        for name in names for args, keywords in calls.get(name, ()))]
    assert not unset, unset


def test_every_module_constant_is_read():
    # A module-level ALL_CAPS name that nothing in the package reads is left
    # over from a deletion. Reads match by name, loosely: a loaded bare name
    # or an attribute of that name anywhere in the package.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    reads = {n.id if isinstance(n, ast.Name) else n.attr
             for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)
             or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}
    unread = [target.id for tree in trees for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name) and target.id.isupper()
              and target.id not in reads]
    assert not unread, unread


def test_the_package_imports_only_the_standard_library_numpy_and_scipy_spatial():
    # Import time is part of every command. scipy.spatial is imported only in
    # the one function that uses it (see the next test); the benchmark
    # preloads numpy and scipy.spatial before it times set-up, so any other
    # import shows there.
    allowed = {"numpy", "scipy.spatial"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name not in allowed
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, sweepdescent, sweepdescent.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]", out.stdout


def test_check_results_are_built_only_by_the_verdict_rule():
    # Every CheckResult comes from verification._check, which sets the
    # verdict, the witness and the anchor the same way for every check.
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_check" and path.name == "verification.py"
                for n in ast.walk(node)}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in rule
                  and "CheckResult" in _names(node.func)]
    assert not stray, stray


def test_every_anchor_names_a_check_and_every_check_has_an_anchor():
    tree = ast.parse((SRC / "verification.py").read_text(encoding="utf-8"))
    anchors = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ANCHORS"])
    calls = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_check"]
    names = [_literal(c.args[0]) if c.args else _NOT_LITERAL for c in calls]
    assert _NOT_LITERAL not in names
    assert set(names) == set(anchors)


def test_every_class_is_used_in_the_package_or_traced():
    # A module-level class that only __init__.py re-exports and the tests
    # build is dead library code, unless the benchmark's tracer wraps it by
    # name. Uses inside the class's own body do not count.
    from test_perfbench import _tracer

    traced = {target.split(".")[0] for _, target, _ in _tracer().TARGETS}
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    uses = Counter(name for tree in trees for name in _names(tree))
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name not in traced
            and uses[node.name] == _names(node).count(node.name)]
    assert not dead, dead


def test_floats_become_text_only_through_format_rows():
    # Output files hold the repr of each float, formatted once per distinct
    # value by sweeping.format_rows; another repr path would bypass that.
    # Error messages (a repr inside a raise) are text for people, not data.
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  or (isinstance(node, ast.FunctionDef) and node.name == "format_rows")
                  for n in ast.walk(node)}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in exempt
                  and ((isinstance(node, ast.Name) and node.id == "repr")
                       or (isinstance(node, ast.Attribute) and node.attr == "__repr__")
                       or (isinstance(node, ast.FormattedValue) and node.conversion == ord("r")))]
    assert not stray, stray


def test_the_regularization_does_not_know_its_base_shape():
    # A regularization grows its base's sets through the base's own growth
    # (_grown_project, _grown_ray_exits), so it tests no base's type and
    # imports no hull or lens geometry.
    tree = ast.parse((SRC / "regularization.py").read_text(encoding="utf-8"))
    tests = [f"{node.func.id}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("isinstance", "hasattr") and node.args
             and any(name.endswith("base") for name in _names(node.args[0]))]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not tests, tests
    assert "_hull_base" not in _names(tree)
    assert not imported & {"HullFunction", "hull_ray_exit", "_step_inside", "dilated_projection"}
