"""Cold start of one workload, run in a fresh interpreter for ``setup_s``.

Imports ``simpact`` and ``simpact.cli`` as every ``simpact run`` does,
then builds the workload's models, configs and policies with the
package's own constructors (scenario configs are loaded and validated
from the files the parent wrote). Prints the input hash so the parent
can confirm that the child built identical inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import simpact  # noqa: E402,F401
import simpact.cli  # noqa: E402

import workloads  # noqa: E402


def main(name: str, seed: int, work_dir: Path) -> None:
    workload = workloads.build(name, seed, ROOT, work_dir)
    for config_name in workload.files:
        config = simpact.cli.load_config(work_dir / "configs" / f"{config_name}.json")
        simpact.cli.build_model(config["model"])
        simpact.cli.build_stepper_config(config)
    print(workload.input_hash)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
