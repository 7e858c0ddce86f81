"""Set-up time of one fresh benchmark process, printed as JSON.

    python3 perfbench/setup_probe.py <workload>

Measures importing sparsemix plus one warm-up fit per method, from
before the first import to the end, then the machine's speed factor (see speed.py).
`run.py` starts several probes and reports the median of their set-up
times at the reference speed as `setup_s`.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import benchenv  # noqa: E402

SPEED_SAMPLES = 25


def main() -> None:
    name = sys.argv[1]
    benchenv.pin()
    benchenv.import_sparsemix()
    import workloads

    workloads.warm_up(workloads.WORKLOADS[name])
    setup_s = time.perf_counter() - START
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.sample(SPEED_SAMPLES)
    print(json.dumps({"setup_s": setup_s, "speed_factor": probe.factor()}))


if __name__ == "__main__":
    main()
