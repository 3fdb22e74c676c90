"""The benchmark's span tracer rebinds hypersos functions by name.

perfbench/tracer.py is loaded by path, unchanged, and every name it traces or
counts must resolve on its module or class; otherwise a rename would only show
up as an AttributeError in the next traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    tracer = _load_tracer()
    names = [(layer, qual) for layer, quals in tracer.TRACED.items() for qual in quals]
    names += [tuple(full.split(".", 1)) for full in tracer.COUNTED]
    assert len(names) > 30
    for layer, qual in names:
        owner = importlib.import_module(f"hypersos.{layer}")
        if "." in qual or qual[0].isupper():
            # a class: the tracer wraps the method (the constructor by default)
            # found in the class's own __dict__
            cls_name, _, method = qual.partition(".")
            cls = getattr(owner, cls_name)
            assert (method or "__init__") in vars(cls), f"{layer}.{qual}"
        else:
            assert callable(getattr(owner, qual)), f"{layer}.{qual}"
