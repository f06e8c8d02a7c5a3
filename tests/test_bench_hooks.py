"""The program names and files the benchmark reaches into must keep resolving.

`perfbench/spans.py` patches functions by (module, attribute) for its
traced runs and `perfbench/workloads.py` imports a few more; deleting or
renaming one of them in `semiabc`, or an artifact file that a traced run
sizes, would otherwise only show as a failed `--trace 1` run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = load_perfbench("spans")
workloads = load_perfbench("workloads")
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


def test_staged_run_keeps_every_file_the_benchmark_sizes(tmp_path):
    # a traced run sizes each batch and posterior the staged workload saves
    # or reloads as its `{name}.csv` plus `{name}.json`: a format change
    # that drops or renames one of them would break `--trace 1`
    workload = workloads.WORKLOADS["gaussian_staged"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(seed=1, small=True)))
    out = tmp_path / "out"
    ledger = workloads.Ledger()
    assert workloads.run_workload(workload, config, out, ledger)
    assert ledger.failed == 0, ledger.misses
    for name in workloads.RELOAD_BATCHES + workloads.RELOAD_POSTERIORS:
        assert (out / f"{name}.csv").is_file() and (out / f"{name}.json").is_file()
        assert spans._file_bytes(out, name) > 0
