"""One timed set-up of a workload, in a fresh process.

    python3 perfbench/setup_trial.py WORKLOAD SEED WORKDIR [--smoke]

Times importing ``ramals`` (with numpy and scipy) plus generating and writing
the workload's inputs from the seed, then prints one JSON line with the
set-up time, wall and scaled by the host-speed gauge (``hostspeed.py``), and
the time and call count of ``sessions.generate_synthetic``.  ``run.py``
starts several of these, spread over its run, and reports the median.
"""

import time

T_START = time.perf_counter()

import hostspeed  # noqa: E402  (standard library only)

hostspeed.GAUGE.start()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402  (imports ramals, numpy and scipy)


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    workload = workloads.make_workload(name, smoke="--smoke" in argv[3:])
    tracer = spans.Tracer("setup")
    tracer.wrap(workloads.sessions, "generate_synthetic", "sessions.generate_synthetic")
    try:
        workload.setup(workdir, seed)
    finally:
        tracer.restore()
    wall_s = hostspeed.clock() - T_START
    speed = hostspeed.GAUGE.stop()
    generate = tracer.summary().get("sessions.generate_synthetic", {"calls": 0, "s": 0.0})
    print(json.dumps({"setup_s": wall_s * speed, "wall_s": wall_s, "speed": speed,
                      "generate_s": generate["s"], "generate_calls": generate["calls"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
