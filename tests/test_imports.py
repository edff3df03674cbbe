"""The package imports only what runs: scipy loads for the polish of
``flat defect`` alone (``scipy.optimize``), never for covers or norms."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs the CLI with the given arguments (none: import only), then reports
# on stderr whether scipy.optimize, and whether any scipy module, was loaded
_PROBE = """
import sys
from flatcover import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
scipy = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
sys.stderr.write("\\nexit=%d optimize=%d scipy=%d\\n"
                 % (code, "scipy.optimize" in sys.modules, scipy))
"""


def _probe(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    status = proc.stderr.strip().splitlines()[-1]
    return proc.stdout, status


def test_import_and_covers_leave_scipy_optimize_unloaded(tmp_path):
    """Neither scipy.optimize nor any other scipy module."""
    assert _probe()[1] == "exit=0 optimize=0 scipy=0"
    cov = tmp_path / "cover.json"
    for kind, phase in (("hp", "xy"), ("general", "elliptic")):
        _, status = _probe("cover", "build", "--kind", kind, "--phase", phase,
                           "--delta", "2^-5", "--out", str(cov))
        assert status == "exit=0 optimize=0 scipy=0", kind
        _, status = _probe("cover", "verify", "--cover", str(cov), "--phase", phase)
        assert status == "exit=0 optimize=0 scipy=0", kind


def test_norms_load_no_scipy():
    """The exact norm engine's FFTs are numpy.fft's: the whole sum and the
    16 caps members here all take FFT fields (the separable path)."""
    out, status = _probe("decouple", "ratio", "--example", "bump", "--delta", "2^-4")
    assert status == "exit=0 optimize=0 scipy=0"
    assert json.loads(out)["methods"]["separable"] == 16


def test_flat_defect_on_a_cubic_still_polishes(tmp_path):
    """The polish runs and moves the sampled defect 0.22399999999999995 up
    to the value it printed when scipy.optimize loaded with the package."""
    phase = tmp_path / "cubic.json"
    phase.write_text(json.dumps({"degree": 3,
                                 "coeffs": [[3, 0, 1.0], [0, 3, 1.0], [1, 1, 1.0]]}))
    out, status = _probe("flat", "defect", "--phase", str(phase),
                         "--rect", "0.1", "0.2", "0.5", "0.3", "--delta", "2^-4")
    assert status == "exit=0 optimize=1 scipy=1"
    rep = json.loads(out)
    assert rep["defect"] == rep["lower"] == 0.22399999999999998
    assert rep["upper"] == 0.24976941016011037
    assert rep["argmax_u"] == [0.5, 0.3]
    assert rep["argmax_v"] == [0.09999999999999998, 0.2]
    assert (rep["certified"], rep["is_flat"]) == (False, True)
