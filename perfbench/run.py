"""Pipeline benchmark for semiabc: one workload per invocation.

    python3 perfbench/run.py --workload gaussian_staged --seed 1 --seconds 20 --trace 0

Run from the repository root. The workloads (see workloads.py) drive the
public CLI, `semiabc.cli.main`, from this one process.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall time of one warm workload run, repeated
               (at least MIN_REPEATS times) as long as the repeats fit in
               --seconds, after a reduced-size warm-up run
  setup_s      median, over SETUP_REPEATS fresh interpreters, of the time
               from process start through importing semiabc.cli,
               parse_config and build_fixture for the workload's config
  peak_rss_mb  peak resident memory of a fresh child process making one
               workload run
  artifact_mb  bytes left in the output directory by one workload run
--trace 1 alternates untraced and traced runs (at least one pair, more
while they fit in --seconds) and reports the per-layer metrics of
layers.py (medians over the traced runs), with trace.overhead_s = median
traced - median untraced wall time. Spans are written to
.bench_work/spans/.

Every run checks outputs: each CLI step exits 0, each reported target
estimate lies within the workload's estimate_tol_sd oracle posterior sds
of the oracle mean, every run's output directory has the same digest
(the fresh child's too, and traced against untraced), and the staged
reloads pass the loaders' config-hash and row-count checks. Each miss
counts as a failed operation. Human-readable notes with the environment
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".bench_work"

# One BLAS thread, so worker threads x BLAS threads stays within nproc
# while gpd_experiment runs two cell threads. Set before numpy loads;
# child processes inherit it.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
MB = 1e6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}


def configure_process() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(REPO / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _settle(out: Path) -> None:
    """Flush the run's files to disk and delete them, so each repeat starts
    with no dirty pages of its predecessor pending."""
    for path in out.rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                os.fsync(f.fileno())
    shutil.rmtree(out)


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, workload, seed: int, work: Path, small: bool = False):
        from workloads import Ledger, Oracle

        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.config = self._write_config("config.json", workload.config(seed, small))
        self.warm_config = self._write_config("config_warmup.json", workload.config(seed, small=True))
        self.oracle = Oracle(self.config, workload.estimate_tol_sd)
        self.digests: set[str] = set()
        self.artifact_bytes = 0
        self.notes: dict = {}
        self._runs = 0

    def _write_config(self, name: str, data: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(data, indent=2) + "\n")
        return path

    def run(self, tracer=None, config: Path | None = None) -> float:
        """One workload run in a fresh output directory; returns its wall time.

        With a tracer, spans are recorded around the run (and only the run).
        Outputs of full-size runs are checked and their digest recorded."""
        from workloads import check_outputs, run_workload, tree_bytes, tree_digest

        self._runs += 1
        out = self.work / f"out{self._runs}"
        out.mkdir()
        gc.collect()
        with tracer.install() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            completed = run_workload(
                self.workload, config or self.config, out, self.ledger, tracer and tracer.span
            )
            wall = time.perf_counter() - start
        if completed and config is None:
            check_outputs(self.workload, out, self.oracle, self.ledger)
            self.digests.add(tree_digest(out))
            self.artifact_bytes = tree_bytes(out)
        _settle(out)
        return wall

    def warm_up(self) -> None:
        wall = self.run(config=self.warm_config)
        self.notes["warm_up"] = {"config": "reduced size (workloads.SMALL)", "wall_s": wall}

    def check_digests(self, what: str) -> None:
        self.ledger.check(len(self.digests) == 1, f"output digests differ across {what}")

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "setup", str(self.config)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        return times

    def child_run(self) -> float:
        """Peak RSS (bytes) of one workload run in a fresh process."""
        out = self.work / "out_child"
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "workload", self.workload.name,
             str(self.config), str(out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.ledger.attempted += result["attempted"]
        self.ledger.failed += result["failed"]
        self.ledger.misses.extend(f"child: {m}" for m in result["misses"])
        self.digests.add(result["digest"])
        _settle(out)
        return result["peak_rss_bytes"]

    def end_to_end(self, seconds: float) -> dict[str, float]:
        setup = self.setup_times()
        self.warm_up()
        walls = []
        deadline = time.perf_counter() + seconds
        # start another repeat only if it should end by the deadline
        while len(walls) < MIN_REPEATS or time.perf_counter() + statistics.median(walls) <= deadline:
            walls.append(self.run())
        peak = self.child_run()
        self.check_digests("repeats and the fresh child")
        self.notes["wall_s_runs"] = walls
        self.notes["setup_s_runs"] = setup
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak / MB,
            "artifact_mb": self.artifact_bytes / MB,
        }

    def per_layer(self, seconds: float) -> tuple[dict[str, float], list]:
        from layers import layer_metrics
        from spans import Tracer

        self.warm_up()
        plain, traced, per_run, spans = [], [], [], []
        deadline = time.perf_counter() + seconds
        pair = 0.0
        while not traced or time.perf_counter() + pair <= deadline:
            started = time.perf_counter()
            plain.append(self.run())
            tracer = Tracer(f"{self.workload.name}-seed{self.seed}-run{len(traced)}")
            traced.append(self.run(tracer))
            per_run.append(layer_metrics(tracer.spans))
            spans.extend(tracer.spans)
            pair = time.perf_counter() - started
        self.check_digests("traced and untraced runs")
        metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        self.notes["wall_s_untraced"] = plain
        self.notes["wall_s_traced"] = traced
        return metrics, spans


def environment(workload, work: Path) -> dict:
    import numpy
    import scipy
    from workloads import cli_threads

    def blas(config):
        try:
            return config["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(getattr(numpy.__config__, "CONFIG", None)),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "cli_threads": cli_threads(workload),
        "output_fs": filesystem_type(work),
    }


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding `path`, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        mount = fields[4]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best) and " - " in line:
            best, fstype = mount, line.split(" - ", 1)[1].split()[0]
    return fstype


def measure(workload_name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one benchmark invocation; returns {result, notes, spans}."""
    from layers import UNITS as LAYER_UNITS
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(workload, seed, work, small)
        spans = []
        if trace:
            values, spans = bench.per_layer(seconds)
        else:
            values = bench.end_to_end(seconds)
        notes = {"environment": environment(workload, work), **bench.notes}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = bench.ledger
    notes["misses"] = ledger.misses
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "notes": notes, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    configure_process()
    try:
        import semiabc.cli
    except ImportError as exc:
        print(f"perfbench: cannot import semiabc from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    if REPO / "src" not in Path(semiabc.cli.__file__).resolve().parents:
        print(f"perfbench: semiabc comes from {semiabc.cli.__file__}, not {REPO / 'src'}", file=sys.stderr)
        return 2
    from workloads import CONFIGS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (CONFIGS / WORKLOADS[args.workload].base_config).is_file():
        print(f"perfbench: missing config under {CONFIGS}", file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if run["spans"]:
        from spans import dump_spans

        dump_spans(run["spans"], WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    for key, value in run["notes"].items():
        print(f"# {key}: {json.dumps(value)}")
    result = run["result"]
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failure_rate = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
