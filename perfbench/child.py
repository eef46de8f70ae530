"""Child process of the benchmark: a set-up probe or a traced CLI run.

    python3 perfbench/child.py setup <dbarheat argv...>
    python3 perfbench/child.py trace <spans.json> <command id> <dbarheat argv...>

``setup`` imports dbarheat, resolves the config, assembles the operator
and builds the propagator, then exits: the parent times it as the cost of
everything before the first time step.  ``delta`` and ``beta-check`` stop
after the config.

``trace`` wraps the public callables of each layer, at every module that
imported them, before it calls ``dbarheat.cli.main``; nothing in the
package is edited.  Every wrapped call is recorded as a span (name, start,
end, parent span, thread, command id, plus a few counts) kept in memory and
written as JSON when the command ends.  A callable missing from the package
is listed as absent instead of failing the run.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span recorder shared by every wrapper of one command."""

    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self.installed = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(), "cmd": self.command_id}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def add(self, name, start, end):
        """Record a span that was timed outside any wrapper."""
        self.spans.append({"id": next(self._ids), "name": name,
                           "parent": None, "thread": threading.get_ident(),
                           "cmd": self.command_id, "start": start,
                           "end": end})

    def wrapper(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced


# -- span attributes ---------------------------------------------------------

def _rhs_count(args, kwargs, result):
    # a solve on an (N, k) block counts as k solves
    b = args[1] if len(args) > 1 else kwargs.get("b")
    return {"rhs": 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[-1])}


def _nnz(args, kwargs, result):
    return {"nnz": int(getattr(getattr(result, "matrix", None), "nnz", 0))}


def _picard_iters(args, kwargs, result):
    return {"iters": int(result[1].iterations)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (module, attribute path, span name, attribute function)
LAYERS = [
    ("semigroup", "Propagator.__init__", "semigroup.propagator_build", None),
    ("semigroup", "Propagator.solve", "semigroup.solve", _rhs_count),
    ("semigroup", "evolve_linear", "semigroup.evolve_linear", None),
    ("semigroup", "heat_kernel", "semigroup.heat_kernel", None),
    ("semigroup", "kernel_bound_check", "semigroup.kernel_bound_check", None),
    ("boxop", "assemble_box", "boxop.assemble_box", _nnz),
    ("boxop", "operator_audit", "boxop.operator_audit", None),
    ("mild", "Nonlinearity.apply", "mild.nonlinearity", None),
    ("mild", "duhamel_apply", "mild.duhamel_apply", None),
    ("mild", "picard_solve", "mild.picard_solve", _picard_iters),
    ("mild", "y_norm", "mild.y_norm", None),
    ("stability", "lp_lq_probe", "stability.lp_lq_probe", None),
    ("stability", "fit_decay", "stability.fit_decay", None),
    ("weights", "delta", "weights.delta", None),
    ("grid", "lp_norm", "grid.norm", None),
    ("grid", "boundary_mass", "grid.norm", None),
    ("reportio", "field_table", "reportio.table", None),
    ("reportio", "kernel_table", "reportio.table", None),
    ("reportio", "decay_table", "reportio.table", None),
    ("reportio", "series_table", "reportio.table", None),
    ("reportio", "fit_summary_table", "reportio.table", None),
    ("reportio", "matrix_dump_table", "reportio.table", None),
    ("reportio", "write_csv", "reportio.write", _bytes_written),
    ("reportio", "write_manifest", "reportio.write", _bytes_written),
    ("cli", "_resolve_config", "config.resolve", None),
    ("cli", "main", "cli.main", None),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dbarheat"
                                  or name.startswith("dbarheat."))]


def _replace_everywhere(original, wrapped):
    """Point every dbarheat module attribute bound to original at wrapped,
    so names taken with ``from ... import`` are wrapped at each site."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _count_cg_iterations(tracer, cg):
    """Wrap the ``cg`` that dbarheat.semigroup imported, counting
    iterations through its callback."""

    def traced_cg(*args, **kwargs):
        iters = [0]
        inner = kwargs.get("callback")

        def callback(xk):
            iters[0] += 1
            if inner is not None:
                inner(xk)

        kwargs["callback"] = callback
        return tracer.call("semigroup.cg", cg, args, kwargs,
                           lambda a, k, r: {"iters": iters[0]})

    return traced_cg


def install(tracer):
    import importlib

    for module_name, path, span_name, attrs in LAYERS:
        label = "%s.%s" % (module_name, path)
        try:
            owner = importlib.import_module("dbarheat." + module_name)
        except ImportError:
            tracer.absent.append(label)
            continue
        *scope, attr = path.split(".")
        for part in scope:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.absent.append(label)
            continue
        wrapped = tracer.wrapper(span_name, original, attrs)
        if scope:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
        tracer.installed.append(label)

    semigroup = sys.modules["dbarheat.semigroup"]
    cg = getattr(semigroup, "cg", None)
    if callable(cg):
        _replace_everywhere(cg, _count_cg_iterations(tracer, cg))
        tracer.installed.append("semigroup.cg")
    else:
        tracer.absent.append("semigroup.cg")

    # cli.main looks subcommands up in DISPATCH, which holds the functions
    cli = sys.modules["dbarheat.cli"]
    dispatch = getattr(cli, "DISPATCH", {})
    for command, fn in list(dispatch.items()):
        dispatch[command] = tracer.wrapper("cli.cmd." + command, fn)


def trace_main(spans_path, command_id, argv):
    tracer = Tracer(command_id)
    started = time.perf_counter()
    import dbarheat.cli  # noqa: F401  (import cost is a span of its own)
    tracer.add("cli.import", started, time.perf_counter())
    install(tracer)
    cli = sys.modules["dbarheat.cli"]
    code = None  # stays None if main raises
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"command": command_id, "exit_code": code,
                       "installed": tracer.installed,
                       "absent": tracer.absent,
                       "spans": tracer.spans}, fh)
    return code


def setup_main(argv):
    import dbarheat.cli as cli
    from dbarheat import boxop, semigroup

    args = cli.build_parser().parse_args(argv)
    cfg = cli._resolve_config(args)
    if args.command in ("delta", "beta-check"):
        return 0
    op = boxop.assemble_box(cfg.grid(), cfg.weight())
    if cfg.has("stepper", "dt"):
        semigroup.Propagator(op, cfg.stepper())
    return 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup":
        sys.exit(setup_main(sys.argv[2:]))
    if mode == "trace":
        sys.exit(trace_main(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit("usage: child.py setup|trace ...")
