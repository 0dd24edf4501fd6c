"""Which scipy modules each bwgan path loads, seen from a fresh interpreter.

bwgan imports scipy's FFT, distance, assignment, LP and sparse modules
inside the functions that use them, so that ``import bwgan`` and the paths
that need none of them (L^p and Sobolev norms, training without the W1
monitor) do not pay for loading them.  Only pairwise W^{s,2} distances
import ``scipy.fft`` themselves; ``scipy.optimize`` loads it as well.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwgan

HEAVY = ("scipy.fft", "scipy.optimize", "scipy.sparse", "scipy.spatial")
SRC = str(Path(bwgan.__file__).resolve().parents[1])


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports bwgan from this tree;
    return its stdout."""
    path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def heavy_modules_after(code):
    """The HEAVY scipy modules loaded once ``code`` has run, read from the
    last line of its output."""
    out = run_fresh(f"{code}\nimport sys\n"
                    f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    return set(out.splitlines()[-1].split())


L2_PATHS = {
    "import-bwgan": "import bwgan",
    "import-cli": "import bwgan.cli",
    "norm": "from bwgan import spaces\n"
            "spaces.norm(spaces.lp_space(2.0), [3.0, 4.0])",
    "dual_norm": "from bwgan import spaces\n"
                 "spaces.dual_norm(spaces.lp_space(2.0), [3.0, 4.0])",
    "heuristic_stats": "import numpy as np\n"
                       "from bwgan import datasets, spaces, training\n"
                       "training.heuristic_stats(datasets.eight_gaussians,\n"
                       "    np.random.default_rng(0), 64, spaces.lp_space(2.0))",
    "train": "from bwgan import spaces, training\n"
             "training.train(training.TrainConfig(spaces.lp_space(2.0),\n"
             "    critic_widths=(8,), gen_widths=(8,), latent_dim=2, n_critic=1,\n"
             "    batch_size=8, total_iterations=2, w1_every=0,\n"
             "    heuristic_samples=64))",
}


@pytest.mark.parametrize("code", L2_PATHS.values(), ids=L2_PATHS.keys())
def test_l2_paths_load_no_heavy_scipy_module(code):
    assert heavy_modules_after(code) == set()


def test_cli_norm_of_an_l2_signal_loads_no_heavy_scipy_module(tmp_path):
    signal = tmp_path / "signal.txt"
    signal.write_text("3 4\n")
    code = (f"from bwgan import cli\n"
            f"assert cli.main(['norm', {str(signal)!r}]) == 0")
    assert heavy_modules_after(code) == set()


SOBOLEV = "spaces.sobolev_space(1.0, 2.0, (8, 8))"
SOBOLEV_PATHS = {
    "norm": f"import numpy as np\nfrom bwgan import spaces\n"
            f"spaces.norm({SOBOLEV}, np.ones(64))",
    "dual_norm_batch": f"import numpy as np\nfrom bwgan import spaces\n"
                       f"spaces.dual_norm_batch({SOBOLEV}, np.ones((3, 64)))",
    "heuristic_stats": "import numpy as np\n"
                       "from bwgan import datasets, spaces, training\n"
                       "training.heuristic_stats(datasets.rectangles,\n"
                       "    np.random.default_rng(0), 64,\n"
                       "    spaces.sobolev_space(1.0, 2.0, datasets.RECT_SHAPE))",
}


@pytest.mark.parametrize("code", SOBOLEV_PATHS.values(), ids=SOBOLEV_PATHS.keys())
def test_sobolev_paths_load_no_heavy_scipy_module(code):
    assert heavy_modules_after(code) == set()


def test_cli_norm_of_a_sobolev_signal_loads_no_heavy_scipy_module(tmp_path):
    signal = tmp_path / "signal.txt"
    signal.write_text(" ".join(["1"] * 64) + "\n")
    code = (f"from bwgan import cli\n"
            f"assert cli.main(['norm', {str(signal)!r}, '--space', 'sobolev',\n"
            f"                 '--shape', '8x8']) == 0")
    assert heavy_modules_after(code) == set()


def test_sobolev_pairwise_distances_load_only_scipy_fft():
    code = ("import numpy as np\nfrom bwgan import spaces\n"
            "spaces.pairwise_norms(spaces.sobolev_space(1.0, 2.0, (16, 16)),\n"
            "    np.ones((3, 256)), np.zeros((2, 256)))")
    assert heavy_modules_after(code) == {"scipy.fft"}


def test_wasserstein_1_loads_the_transport_solvers():
    code = ("from bwgan import spaces, transport\n"
            "mu = transport.DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])\n"
            "transport.wasserstein_1(mu, mu, spaces.lp_space(2.0))")
    assert {"scipy.optimize", "scipy.spatial"} <= heavy_modules_after(code)


def test_linprog_patched_before_scipy_optimize_loads_still_solves():
    # 1/67 is k/N for no N <= MAX_SUPPORT, so this pair goes to the LP
    code = """
import sys
from bwgan import spaces, transport
assert "scipy.optimize" not in sys.modules
calls = []
linprog = transport.linprog

def counting_linprog(*args, **kwargs):
    calls.append(1)
    return linprog(*args, **kwargs)

transport.linprog = counting_linprog
mu = transport.DiscreteMeasure([[0.0], [1.0]], [1 / 67, 66 / 67])
nu = transport.DiscreteMeasure([[0.0]], [1.0])
print(len(calls), repr(transport.wasserstein_1(mu, nu, spaces.lp_space(2.0))),
      len(calls))
"""
    before, w1, after = run_fresh(code).split()
    assert (before, after) == ("0", "1")
    assert float(w1) == pytest.approx(66 / 67, abs=1e-12)
