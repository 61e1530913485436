"""The benchmark's tracer (``perfbench/tracer.py``) patches named lookups
in the package: module functions, class methods and the QMC module
stand-in.  It reads each original from ``owner.__dict__``, so a traced name
that moves breaks the benchmark.  This guard installs the tracer and
leaves it again: every lookup must resolve and come back unchanged."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_resolves_and_is_restored():
    tracer = _load_tracer().Tracer()
    lookups = [(owner, attr) for owner, attr, _ in tracer._patches()]
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in lookups if attr not in owner.__dict__]
    assert not missing, f"traced lookups no longer in their owner's namespace: {missing}"
    originals = [owner.__dict__[attr] for owner, attr in lookups]
    with tracer.installed(0):
        patched = [owner.__dict__[attr] for owner, attr in lookups]
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(owner.__dict__[attr] is o for (owner, attr), o in zip(lookups, originals))
