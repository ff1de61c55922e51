"""Time one fresh set-up: import sampledlq and build a workload's op list.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds scaled to the nominal host speed (see hostspeed.py),
then the raw elapsed seconds.  `run.py` starts this in a new interpreter for
each set-up sample, so that every sample pays the full import.  numpy is
imported before the clock starts, because the host-speed kernel uses it.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    from hostspeed import Sampler

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with Sampler() as sampler:
        start = perf_counter()
        import sampledlq.cli  # noqa: F401  (the import is what is being timed)
        from workloads import build_ops

        build_ops(sys.argv[1], int(sys.argv[2]))
        end = perf_counter()
    print(repr(sampler.scaled(start, end)), repr(end - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
