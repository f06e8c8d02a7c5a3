"""The program names the benchmark reaches into must keep resolving.

`perfbench/spans.py` patches functions by (module, attribute) for its
traced runs and `perfbench/workloads.py` imports a few more; deleting or
renaming one of them in `semiabc` would otherwise only show as a failed
`--trace 1` run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = load_spans()
HOOKS = sorted({(module, attr) for module, attr, _name, _hook in spans.PATCHES})
HOOKS += [(module, "ThreadPoolExecutor") for module in spans.POOL_MODULES]
# what perfbench/workloads.py imports from the program
HOOKS += [
    ("semiabc.cli", "main"),
    ("semiabc.artifacts", "load_batch"),
    ("semiabc.artifacts", "load_posterior"),
    ("semiabc.runconfig", "parse_config"),
    ("semiabc.semiauto", "build_fixture"),
    ("semiabc.semiauto", "targets_from_specs"),
    ("semiabc.semiauto", "posterior_target_estimates"),
]


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_benchmark_hook_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
