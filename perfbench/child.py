"""One fresh process of the benchmark: import `netmoments`, call
`netmoments.cli.main` once per argument list, and print one line
`PERFBENCH {json}` with the timings.

    python3 perfbench/child.py '{"src": "...", "runs": [[...]], "trace_out": null}'

`entry` is the `time.perf_counter()` reading (a system-wide monotonic clock)
at the entry of `run_experiment`, so the parent can take set-up time from its
own reading before it started this process.  With `trace_out` set, the
public functions named in `tracer.TARGETS` are wrapped and their spans are
written to that file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import netmoments.cli as cli

    import_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        print(f"netmoments imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec.get("trace_out"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stamps = {}
    run_experiment = cli.run_experiment

    def stamped_run_experiment(*args, **kwargs):
        stamps["entry"] = time.perf_counter()
        stamps["cpu_entry"] = time.process_time()
        return run_experiment(*args, **kwargs)

    cli.run_experiment = stamped_run_experiment

    runs = []
    for argv in spec["runs"]:
        stamps.clear()
        code = cli.main(argv)
        end, cpu_end = time.perf_counter(), time.process_time()
        runs.append(
            {
                "exit": code,
                "entry": stamps.get("entry"),
                "wall_s": end - stamps["entry"] if stamps else None,
                "cpu_s": cpu_end - stamps["cpu_entry"] if stamps else None,
            }
        )
    sys.stdout.flush()
    result = {
        "import_s": import_s,
        "runs": runs,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        Path(spec["trace_out"]).write_text(
            json.dumps({"summary": result["trace"], "spans": tracer.span_records(),
                        "tallies": tracer.tallies}, indent=1) + "\n"
        )
    print("PERFBENCH " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
