"""One fresh benchmark process: set up, then run `dstlab run CONFIG` once.

Usage: python3 bench/child.py CONFIG MODE, where MODE is `setup` (stop
after set-up), `run` or `trace` (run with every dstlab call traced).

Set-up is importing dstlab and loading the config; the process then
prints `ready`, so the parent can time set-up from its side. After the run
the last stdout line is a JSON object with the run's wall time and, when
traced, the per-layer metrics. The output root comes from the
DSTLAB_OUTPUT_ROOT environment variable, as for any dstlab run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402
from time import perf_counter  # noqa: E402

from dstlab import cli  # noqa: E402
from dstlab.config import load_config  # noqa: E402


def main(config: str, mode: str) -> int:
    cfg = load_config(config)
    tracer = None
    if mode == "trace":
        from tracing import Tracer, layer_metrics  # beside this script, on sys.path

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if mode == "setup":
        return 0
    start = perf_counter()
    code = cli.main(["run", config])
    result: dict = {"exit": code, "run_s": perf_counter() - start}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, cfg.warmup_epochs, cfg.batch_size)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
