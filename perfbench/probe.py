"""Probes that run.py starts in fresh processes.

    python3 perfbench/probe.py setup <element order>
    python3 perfbench/probe.py rss <workload> <seed>

`setup` imports sltfem from this checkout and solves one 4x4 plate; run.py
times it from process start to exit, and runs the same warm-up itself before
anything is timed. `rss` runs one untimed execution of a workload and prints
the process's peak resident set in KiB as its last line.
"""

import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def import_sltfem():
    """Import sltfem from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sltfem

    if Path(sltfem.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"sltfem imported from {sltfem.__file__}, not from {SRC}")
    return sltfem


def warm_up(order: int) -> None:
    sltfem = import_sltfem()
    from sltfem.cli import scenario_config

    result = sltfem.run_single(scenario_config("x", "constant", 4, 4, order=order))
    if not result.report.converged:
        raise RuntimeError("warm-up solve did not converge")


def peak_rss(workload: str, seed: int) -> int:
    import_sltfem()
    from run import WORKLOADS, execute, make_config

    execute(make_config(workload, seed), WORKLOADS[workload][2])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        warm_up(int(sys.argv[2]))
    else:
        print(peak_rss(sys.argv[2], int(sys.argv[3])))
