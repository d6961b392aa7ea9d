"""The benchmark tracer's view of ``verify``.

perfbench/tracer.py measures by rebinding names in the gwcalc modules
while it runs.  A ``verify`` suite that reached one of those functions
through a reference taken at import time would bypass the rebinding, and
the per-layer metric for it would silently read 0.  The test below
counts calls through every name the tracer rebinds in ``gwcalc.cli`` and
through every suite, on one ``verify`` run.  The tracer also rebinds
the session methods per class; the second test checks that the bodies
both sessions share still reach them through the instance, and that the
two descendant recursions, which verify reaches through each session's
_recursion_value in their defining modules, are counted there.
"""

import importlib.util
import os
from collections import Counter

from gwcalc import cli
from gwcalc.complex_solver import ComplexSession
from gwcalc.real_solver import RealSession

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the names the per-layer metrics of verify-p3 are read through
VERIFY_LAYERS = {"wdvv_instances", "rwdvv_instances", "reduce_axioms",
                 "residual_string_complex", "residual_string_real",
                 "residual_dilaton_complex", "residual_dilaton_real",
                 "residual_wdvv_pde", "residual_rwdvv_pde"}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _names_the_tracer_rebinds_in_cli():
    before = dict(vars(cli))
    tracer = _tracer()
    tracer.install()
    try:
        return {name for name, obj in vars(cli).items()
                if before.get(name) is not obj}
    finally:
        tracer.uninstall()


def test_verify_calls_every_traced_name(capsys, monkeypatch):
    names = _names_the_tracer_rebinds_in_cli()
    assert VERIFY_LAYERS <= names
    names.discard("emit_rows")  # verify prints no invariant rows
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    for name, fn in list(cli.SUITE_FUNCS.items()):
        monkeypatch.setitem(cli.SUITE_FUNCS, name,
                            counted("suite " + name, fn))
    code = cli.main(["verify", "--target", "P3-tau", "--max-degree", "2"])
    assert code == 0 and "FAIL" not in capsys.readouterr().out
    labels = names | {"suite " + name for name in cli.SUITE_FUNCS}
    assert sorted(label for label in labels if not calls[label]) == []


def test_tracer_sees_both_sessions(capsys):
    """Both sessions share their value, relation_residual and block-solve
    driver bodies and bind them in their own class bodies (the driver as
    ensure_primary and ensure_real), so the tracer wraps each class on
    its own; the shared bodies call value, relation_residual and the
    block solves through the instance, so the wrappers see both
    theories' calls, and uninstall puts each class's own entries back.
    Each session's recursion calls reduce_descendant_trr or
    reduce_descendant_rtrr through its own module, where the tracer
    rebinds them, so both are counted as well."""
    assert (ComplexSession.__dict__["ensure_primary"]
            is RealSession.__dict__["ensure_real"])
    names = ("value", "relation_residual", "ensure_primary", "ensure_real")
    before = {(cls, name): cls.__dict__.get(name)
              for cls in (ComplexSession, RealSession) for name in names}
    tracer = _tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--target", "P3-tau", "--max-degree", "2"])
    finally:
        tracer.uninstall()
    assert code == 0 and "FAIL" not in capsys.readouterr().out
    traced = ["complex_solver.value", "real_solver.value",
              "complex_solver.relation_residual",
              "real_solver.relation_residual",
              "complex_solver.ensure_primary", "real_solver.ensure_real",
              "complex_solver.reduce_descendant_trr",
              "real_solver.reduce_descendant_rtrr"]
    assert [name for name in traced if not tracer.calls[name]] == []
    assert {(cls, name): cls.__dict__.get(name)
            for cls, name in before} == before
