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


# the modules whose `run_semiauto` the benchmark counts as its calls
RUN_SEMIAUTO_MODULES = sorted(m for m, attr, _name, _hook in spans.PATCHES if attr == "run_semiauto")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """run(name) -> (out, ledger, run_semiauto calls) of one reduced-size
    run of the workload `name`, made on first use."""
    runs = {}

    def run(name):
        if name not in runs:
            workload = workloads.WORKLOADS[name]
            work = tmp_path_factory.mktemp(name)
            config = work / "config.json"
            config.write_text(json.dumps(workload.config(seed=1, small=True)))
            out, ledger, calls = work / "out", workloads.Ledger(), []
            with pytest.MonkeyPatch.context() as patch:
                for module_name in RUN_SEMIAUTO_MODULES:
                    module = importlib.import_module(module_name)

                    def counted(*args, _original=module.run_semiauto, **kwargs):
                        calls.append(1)
                        return _original(*args, **kwargs)

                    patch.setattr(module, "run_semiauto", counted)
                assert workloads.run_workload(workload, config, out, ledger)
            runs[name] = out, ledger, len(calls)
        return runs[name]

    return run


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_calls_run_semiauto(small_run, name):
    # the benchmark requires a counted `run_semiauto` call in every workload:
    # a change that routes a CLI command around it fails here, not only in
    # the benchmark's own tests
    _out, ledger, calls = small_run(name)
    assert ledger.failed == 0, ledger.misses
    assert calls >= 1


def test_staged_run_keeps_every_file_the_benchmark_sizes(small_run):
    # a traced run sizes each batch and posterior the staged workload saves
    # or reloads as its `{name}.csv` plus `{name}.json`: a format change
    # that drops or renames one of them would break `--trace 1`
    out, ledger, _calls = small_run("gaussian_staged")
    assert ledger.failed == 0, ledger.misses
    for name in workloads.RELOAD_BATCHES + workloads.RELOAD_POSTERIORS:
        assert (out / f"{name}.csv").is_file() and (out / f"{name}.json").is_file()
        assert spans._file_bytes(out, name) > 0
