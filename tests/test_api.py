"""The public API: each module's ``__all__`` declares it, and ``rootode``
re-exports those lists and binds no other public function or class."""
import inspect

import rootode
from rootode import algebra, derive, errors
from rootode.numeric import closedform, quadrature, series, tracking

MODULES = (algebra, derive, errors, closedform, quadrature, series, tracking)


def test_facade_all_is_the_module_lists_in_order():
    want = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert rootode.__all__ == want
    assert len(set(want)) == len(want) == 42


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from rootode import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(rootode.__all__)
    assert ns["__version__"] == rootode.__version__
    for m in MODULES:
        for name in m.__all__:
            assert ns[name] is getattr(m, name), name


def test_every_public_function_or_class_on_the_facade_is_in_all():
    bound = {name for name, v in vars(rootode).items() if not name.startswith("_")
             and (inspect.isfunction(v) or inspect.isclass(v))}
    assert bound - set(rootode.__all__) == set()
