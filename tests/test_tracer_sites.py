"""Every name the benchmark's tracer wraps still exists where it is looked up."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclass looks the module up
    spec.loader.exec_module(tracing)  # standard library only
    return tracing.SITES


@pytest.mark.parametrize("site", load_sites(), ids=lambda site: ".".join(
    part for part in site[:3] if part))
def test_site_resolves(site):
    module, cls, attr = site[:3]
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    # Tracer.install reads the attribute exactly this way
    assert callable(vars(owner)[attr])
