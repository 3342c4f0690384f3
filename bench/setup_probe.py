"""Time one fresh interpreter's set-up for a workload; prints seconds.

    python3 bench/setup_probe.py <workload> <input file>

The input file holds the first op's input (a problem text, or a kernel task
as JSON), written beforehand so that nothing but the package is imported
before the clock starts.  Set-up is the import of the workload's entry
module plus building that input through the public constructors.
"""

import json
import sys
import types
from pathlib import Path
from time import perf_counter

import inputs


def main() -> None:
    workload, path = sys.argv[1], Path(sys.argv[2])
    data = path.read_text()
    t0 = perf_counter()
    if workload == "kernels":
        import beamsign  # noqa: F401  (the entry module of the kernels workload)

        inputs.kernel_inputs(types.SimpleNamespace(**json.loads(data)))
    else:
        import beamsign.cli  # noqa: F401  (the entry module of corpus and cli)

        inputs.problem_inputs(data, path.parent)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
