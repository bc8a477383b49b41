"""What ``import latsub`` loads, and what a sparsification run loads."""

import os
import subprocess
import sys

import latsub


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this latsub; its stdout."""
    src = os.path.dirname(os.path.dirname(latsub.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return done.stdout.strip()


def test_import_skips_sympy_and_heavy_scipy_modules():
    # scipy.fft alone adds about 0.09 s to import latsub; the lattice FFTs use numpy.fft.
    code = ("import sys, latsub; print([m for m in ('sympy', 'scipy.sparse.linalg', "
            "'scipy.fft', 'scipy.linalg') if m in sys.modules])")
    assert run_python(code) == "[]"


def test_plain_sparsification_runs_without_scipy(tmp_path):
    # an exp2 round draws and sparsifies with the plain greedy, and certifies it
    code = ("import sys; from latsub.cli import main; "
            f"code = main(['exp2', '--d', '2', '--radii', '8', '--reps', '1', "
            f"'--strategies', 'bss_sub', '--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).splitlines()[-1] == "0 []"  # after the "wrote" lines
