"""Every function the benchmark tracer hooks by name must still exist.

perfbench/tracer.py skips a hook whose module or attribute is gone, and the
metrics that need it then read null; this test catches that at tier 1.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer   # its dataclasses look the module up
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


HOOKS = _hooks()


def test_hook_list_is_not_empty():
    assert len(HOOKS) > 20


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: hook.name)
def test_hooked_function_imports_and_is_callable(hook):
    module = importlib.import_module(hook.module)
    assert callable(getattr(module, hook.attr, None)), \
        f"{hook.module}.{hook.attr} is gone; the tracer would read null"
