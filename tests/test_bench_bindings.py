"""The benchmark's tracer must find every name it patches.

bench/spans.py replaces `owner.__dict__[attr]` for each PATCHES entry; a
name removed from its module makes `bench/run.py --trace 1` fail with a
KeyError.  This check fails first.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    patches = load_spans().PATCHES
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in owner.__dict__]
    assert missing == []
