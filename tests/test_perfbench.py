import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # The traced benchmark wraps library functions and methods by name. A
    # target it cannot find reads as null, and a result with nulls is no
    # result: deleting or renaming a traced name needs a benchmark change.
    import sweepdescent  # noqa: F401
    import sweepdescent.cli  # noqa: F401
    tracer = _tracer()
    modules = tracer._package_modules()
    missing = [f"{layer}.{target}" for layer, target, _ in tracer.TARGETS
               if not tracer._resolve(modules, layer, target)]
    assert not missing, f"tracer targets that no longer resolve: {missing}"


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("workload", ["sweep", "verify", "localized"])
def test_traced_benchmark_ends_in_its_result_line(workload):
    # The benchmark reads only the last line of standard output, so nothing
    # the library prints may follow the JSON result, traced or not. That line
    # is strict JSON and carries a number for every per-layer metric that
    # BENCHMARK.json declares.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    not_numbers = {name: value for name, value in values.items()
                   if isinstance(value, bool) or not isinstance(value, (int, float))}
    assert not not_numbers, not_numbers
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(values) == {metric["name"] for metric in declared}
