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

import numpy as np
import pytest

from dbarheat import GridSpec, StepperConfig, assemble_box, get_weight
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
    cg_params = inspect.signature(semigroup.cg).parameters
    callback = cg_params["callback"]
    assert callback.kind in (callback.POSITIONAL_OR_KEYWORD,
                             callback.KEYWORD_ONLY)
    # cg takes its residual, not b
    assert "b" not in cg_params
    assert list(cg_params)[:3] == ["a", "x0", "r0"]
    params = list(inspect.signature(semigroup.Propagator.solve).parameters)
    assert params[:2] == ["self", "b"]
    assert {"x0", "r0", "atol"} <= set(params)


@pytest.mark.parametrize("weight, extent, points, stiff", [
    ("modsq", 6.0, 16, False),
    ("flat_example", 10.0, 33, True),
], ids=["plain", "stiff"])
def test_every_solve_makes_one_cg_call(monkeypatch, weight, extent, points,
                                       stiff):
    # the benchmark's completeness check counts one semigroup.cg call per
    # Propagator.solve: b = 0 from a nonzero x0, an x0 already within
    # atol and an ordinary step each make exactly one
    op = assemble_box(GridSpec(extent=extent, points=points),
                      get_weight(weight))
    prop = semigroup.Propagator(op, StepperConfig(dt=0.0125))
    assert (prop.preconditioner is not None) == stiff
    calls = []
    real_cg = semigroup.cg

    def counted_cg(*args, **kwargs):
        calls.append(args)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(semigroup, "cg", counted_cg)

    def residual(b, x):
        return b - x - prop.implicit_dt * (op.matrix @ x)

    rng = np.random.default_rng(7)
    size = op.spec.size()
    u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    zero = np.zeros_like(u)
    x = prop.solve(zero, x0=u, r0=residual(zero, u))
    assert not np.any(x) and len(calls) == 1
    b = u - prop.explicit_dt * (op.matrix @ u)
    x = prop.solve(b, x0=u, r0=residual(b, u))
    assert len(calls) == 2
    atol = 1e-6 * np.linalg.norm(b)
    assert np.linalg.norm(residual(b, x)) < atol
    again = prop.solve(b, x0=x, r0=residual(b, x), atol=atol)
    # cg returns x0 at once; expand recomputes the same red nodes
    assert len(calls) == 3 and np.array_equal(again, x)
    prop.advance(u, 3)
    assert len(calls) == 6
