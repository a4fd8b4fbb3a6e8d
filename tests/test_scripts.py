import ast
import os
import subprocess
import sys
from pathlib import Path

import sweepdescent

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_foliation_demo_runs(tmp_path):
    # A short run of the demo: one leaf per grid point and the reverse line.
    package_root = str(Path(sweepdescent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "foliation_demo.py"), "--steps", "20",
         "--grid-size", "4", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.glob("leaf_*.csv")) == [
        f"leaf_{i:03d}.csv" for i in range(4)]
    assert "reverse recovery gap" in done.stdout


def test_every_name_the_scripts_import_exists():
    # No tier-1 test runs gallery_verification.py (it takes seconds), so a
    # renamed or deleted library name would only show when someone runs it.
    missing = []
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("sweepdescent"):
                module = __import__(node.module, fromlist=["_"])
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert len(SCRIPTS) >= 2
    assert not missing, missing
