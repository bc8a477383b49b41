"""What ``import latsub`` loads."""

import os
import subprocess
import sys

import latsub


def test_import_skips_sympy_and_heavy_scipy_modules():
    # scipy.fft alone adds about 0.09 s to import latsub; the lattice FFTs use numpy.fft.
    # scipy.linalg adds about 0.3 s; only the greedy's BLAS calls import it, when they run
    src = os.path.dirname(os.path.dirname(latsub.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, latsub; print([m for m in ('sympy', 'scipy.sparse.linalg', "
            "'scipy.fft', 'scipy.linalg') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.stdout.strip() == "[]"
