"""The traced benchmark looks its entry points up by name; a deleted or renamed
function would otherwise break it silently."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = load_tracer()
    names = [f"{module}.{func}" for module, funcs in tracer.ENTRY_POINTS.items()
             for func in funcs]
    for name in names:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"symplecta.{module}"), func,
                                None)), name
    # kernels and work counters refer to traced entry points
    assert set(tracer.KERNELS) <= set(names)
    assert set(tracer.COUNTERS) <= set(names)
