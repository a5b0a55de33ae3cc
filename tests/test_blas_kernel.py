"""The batch-size self-consistency tests, rerun under a second OpenBLAS kernel.

A trial's bits must not depend on the chunk it is solved in, on every BLAS
kernel, not only on the one OpenBLAS picks for the CPU at hand. numpy's
bundled scipy-openblas picks its kernels when it loads, from
``OPENBLAS_CORETYPE`` if set, so a child process with
``OPENBLAS_CORETYPE=Haswell`` runs the tests below on the AVX2 kernels that
an x86-64 CPU without AVX-512 gets.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import openblas, openblas_core, pinned_for_kernel

ROOT = Path(__file__).resolve().parents[1]

SELF_CONSISTENCY = [
    "tests/test_sensing.py::test_stacked_psi_rounds_as_each_trials_own_product",
    "tests/test_recovery.py::test_stacked_solvers_match_the_per_trial_loops",
    "tests/test_experiments.py::test_monte_carlo_is_independent_of_chunking_and_workers",
    "tests/test_experiments.py::test_a_fine_grid_sweep_runs_in_lone_trials_in_little_memory",
]

# Runs in the child: reports the kernel OpenBLAS loaded, then the tests. The
# Hypothesis profile keeps no example database, and the child's working
# directory is a temporary one, so neither Hypothesis nor pytest writes into
# the repository.
CHILD = """
import json, sys
import pytest

class NoExampleDatabase:
    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("child", database=None)
        settings.load_profile("child")

root, *tests = sys.argv[1:]
sys.path.insert(0, root + "/tests")
from conftest import openblas_core
print(json.dumps(openblas_core()), flush=True)
args = ["-q", "-p", "no:cacheprovider", "-c", root + "/pyproject.toml", "--rootdir", root]
args += [root + "/" + test for test in tests]
sys.exit(pytest.main(args, plugins=[NoExampleDatabase()]))
"""


def test_self_consistency_holds_on_the_haswell_kernel(tmp_path):
    if openblas() is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas on x86-64")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), *SELF_CONSISTENCY],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    corename, _, report = done.stdout.partition("\n")
    assert json.loads(corename) == "Haswell", done.stdout + done.stderr
    assert done.returncode == 0, report[-4000:] + done.stderr[-2000:]


def test_a_pin_fails_by_name_on_an_unrecorded_core():
    # A kernel with no recorded value fails, naming its core; it is never skipped.
    with pytest.raises(pytest.fail.Exception, match=re.escape(f"OpenBLAS core {openblas_core()!r}")):
        pinned_for_kernel({"no such core": "0" * 64}, "a pin")
