"""The benchmark's trace hooks still find what they wrap.

perfbench/child.py lists a traced callable it cannot find as absent
instead of failing, so a refactor that renamed or moved one would drop
its counts without notice.  This reads child.py (without importing it as
a package module or writing bytecode next to it) and checks its hooks
against dbarheat.
"""

import importlib
import inspect
import os
import types

from dbarheat import semigroup

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "child.py")


def _child():
    with open(CHILD, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_child")
    module.__file__ = CHILD
    exec(compile(source, CHILD, "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = _child().LAYERS
    assert layers
    for module_name, path, _, _ in layers:
        owner = importlib.import_module("dbarheat." + module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_cg_and_solve_keep_the_traced_call_forms():
    # iterations are counted through cg's callback keyword, and
    # right-hand sides from the b argument of Propagator.solve
    callback = inspect.signature(semigroup.cg).parameters["callback"]
    assert callback.kind in (callback.POSITIONAL_OR_KEYWORD,
                             callback.KEYWORD_ONLY)
    params = list(inspect.signature(semigroup.Propagator.solve).parameters)
    assert params[:2] == ["self", "b"]
    assert {"x0", "r0", "atol"} <= set(params)
