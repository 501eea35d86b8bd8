"""Every name the benchmark's tracer patches must exist in the package.

``perfbench/tracer.py`` wraps functions by (module, attribute) to time each
layer. A refactor that drops or renames one of them would only show up as a
failed ``perfbench/run.py --trace 1``; this test makes it a Tier-1 failure.
The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    tracer = _tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.CALL_SPANS + tracer.LAYER_SPANS]
    names += [(mod, attr) for mod, attr, _, _ in tracer.PHASE_SPANS]
    # patched directly in Tracer.install
    names += [("forecaster", "tcn_forward"), ("tcn", "tcn_block_forward"),
              ("cli", "main"), ("autodiff", "Tape.record")]
    return sorted(set(names))


@pytest.mark.parametrize("module, attribute", _traced_names())
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(f"tcnad.{module}")
    for part in attribute.split("."):
        assert hasattr(owner, part), f"tcnad.{module} has no {attribute}"
        owner = getattr(owner, part)
    assert callable(owner)
