import importlib
import inspect

import pytest

import hypodecay


def test_every_export_is_the_object_of_its_home_module():
    for name in hypodecay.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"hypodecay.{hypodecay._HOME[name]}")
        value = getattr(hypodecay, name)
        assert value is getattr(home, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name


def test_dir_lists_every_export():
    assert set(hypodecay.__all__) <= set(dir(hypodecay))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypodecay.no_such_name
    with pytest.raises(ImportError):
        from hypodecay import no_such_name  # noqa: F401
