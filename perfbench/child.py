"""Fresh-process probes for the benchmark; run by run.py, not by hand.

  child.py setup CONFIG     import semiabc.cli, parse the config and build its
                            fixture; print time.monotonic() when done
  child.py workload NAME CONFIG OUT
                            one cold workload run into OUT; print its peak
                            resident memory, output digest and operation counts
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(config_path: str) -> None:
    from semiabc.cli import parse_config
    from semiabc.semiauto import build_fixture

    build_fixture(parse_config(config_path))
    print(repr(time.monotonic()))


def workload(name: str, config_path: str, out: str) -> None:
    import json
    import resource

    from workloads import WORKLOADS, Ledger, run_workload, tree_digest

    ledger = Ledger()
    run_workload(WORKLOADS[name], Path(config_path), Path(out), ledger)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "peak_rss_bytes": peak_kib * 1024,
        "digest": tree_digest(Path(out)),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "misses": ledger.misses,
    }))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": setup, "workload": workload}[mode](*rest)
