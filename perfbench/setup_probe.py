"""Set-up time in a fresh interpreter: import paleylift.cli and generate the
workload's inputs.  Prints the seconds taken and then a machine-speed
sample (calibration.sample) taken right after.

    python3 perfbench/setup_probe.py --workload NAME --seed N --dir DIR
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    workloads.set_up(workloads.WORKLOADS[args.workload], args.seed, Path(args.dir))
    seconds = time.perf_counter() - START
    print(seconds, calibration.sample())


if __name__ == "__main__":
    main()
