"""The library and the CLI run on NumPy alone. SciPy is a test dependency, and
`activation.linprog` resolves it lazily for the benchmark's traced run. These
tests start fresh interpreters, some with every `scipy` import made to fail.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.optimize

import pass_uav
from pass_uav import activation, cli, harness

ROOT = Path(__file__).resolve().parent.parent
FAST = ["--population", "40", "--generations", "10", "--hao-iterations", "2"]

BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
"""

RUN_CLI = """
import contextlib, io, json, sys
from pass_uav import cli

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

COMMANDS = [
    ["simulate", "--seed", "1", "--nodes", "5", "--out", "simulate", *FAST],
    ["simulate", "--seed", "2", "--nodes", "4", "--strategy", "nearest_neighbor:islr",
     "--out", "simulate_nn", *FAST],
    ["plan", "--seed", "2", "--nodes", "6", "--out", "plan", *FAST],
    *(["activate", "--seed", "3", "--nodes", "2", "--position", "45,5,5", "--activator", a]
      for a in harness.ACTIVATORS),
    ["activate", "--seed", "3", "--nodes", "3", "--slot", "4", "--activator", "bnb"],
    ["benchmark", "--variable", "pa_count", "--values", "4,6",
     "--strategies", "nearest_neighbor:bnb,nearest_neighbor:islr,nearest_neighbor:mimo",
     "--seeds", "1-2", "--nodes", "3", "--out", "benchmark"],
]


def _python(code: str, *args: str, cwd: Path = ROOT) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's pass_uav;
    return its stdout."""
    src = str(Path(pass_uav.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_subcommand_writes_the_same_bytes_without_scipy(tmp_path, monkeypatch):
    blocked, reference = tmp_path / "blocked", tmp_path / "reference"
    blocked.mkdir()
    reference.mkdir()
    got = json.loads(_python(BLOCK_SCIPY + RUN_CLI, json.dumps(COMMANDS), cwd=blocked))

    monkeypatch.chdir(reference)
    want = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        want.append([rc, out.getvalue(), err.getvalue()])

    for argv, (rc, out, err), expected in zip(COMMANDS, got, want):
        assert rc == 0, (argv, err)
        assert [rc, out, err] == expected, argv
    files = _files(blocked)
    assert {name.split("/")[0] for name in files} == {"simulate", "simulate_nn", "plan", "benchmark"}
    assert files == _files(reference)


def test_import_and_one_cycle_load_no_scipy():
    code = """
import sys
import pass_uav, pass_uav.cli
from pass_uav import harness, route_planner, scenario

spec = harness.StrategySpec(
    ga=route_planner.GaConfig(population_size=40, generations=10),
    hao=route_planner.HaoConfig(max_iterations=2),
)
harness.run_dlo(scenario.generate_scenario(1, 5), spec, extra_activators=("islr", "full", "mimo"))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert _python(code).strip() == "[]"


def test_linprog_is_scipys_own_function():
    assert activation.linprog is scipy.optimize.linprog
    assert getattr(activation, "no_such_name", None) is None


def test_linprog_without_scipy_is_a_missing_attribute():
    code = BLOCK_SCIPY + f"""
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from pass_uav import activation
import tracer

spans = tracer.Tracer()
spans.wrap(activation, "linprog")
print(getattr(activation, "linprog", None) is None, hasattr(activation, "linprog"), spans.missing)
"""
    assert _python(code).strip() == "True False ['activation.linprog']"
