"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` names its targets by module and attribute.  A
deletion or a move in the package that breaks a target would otherwise
show only when `perfbench/run.py --trace` runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _originals():
    """The traced functions' references in the package's modules, keyed by
    (module, name), and the wrapped class attributes, keyed by (class, name)."""
    importlib.import_module("rolcheck")
    modules = [mod for name, mod in sys.modules.items()
               if name == "rolcheck" or name.startswith("rolcheck.")]
    functions = [getattr(sys.modules[mod], attr) for _, mod, attr in tracing.SPANNED_FUNCTIONS]
    references = {(mod, key): value for mod in modules for key, value in vars(mod).items()
                  if any(value is f for f in functions)}
    classes = [(getattr(sys.modules[mod], cls_name), attr)
               for _, mod, cls_name, attr in tracing.SPANNED_METHODS]
    scalars = sys.modules["rolcheck.scalars"]
    classes += [(getattr(scalars, cls_name), attr) for cls_name in tracing.SCALAR_CLASSES
                for attr in (*tracing.SCALAR_OPS, "__init__")]
    classes.append((scalars.GaussianRational, "_raw"))
    return functions, references, {(cls, attr): cls.__dict__[attr] for cls, attr in classes}


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    yield t
    t.uninstall()


def test_every_target_is_patched_and_restored(tracer):
    functions, references, methods = _originals()
    tracer.install_spans()
    tracer.install_scalar_counts()

    for (name, mod, attr), original in zip(tracing.SPANNED_FUNCTIONS, functions):
        assert any(value is original and getattr(m, key) is not original
                   for (m, key), value in references.items()), \
            f"{name}: no reference to {mod}.{attr} was patched"
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is not original, (cls.__name__, attr)

    tracer.uninstall()

    for (m, key), value in references.items():
        assert getattr(m, key) is value, (m.__name__, key)
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, (cls.__name__, attr)
