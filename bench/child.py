"""One cold etcsim call in a fresh interpreter.

    python3 child.py ROOT RESULT_JSON [SCENARIO OUT_DIR RUN_ID TRACE]

Imports ``etcsim.cli`` from ``ROOT/src`` and records the monotonic time
at which the import finished, so the parent can time interpreter start
plus imports.  With a scenario it then runs ``etcsim simulate SCENARIO
--out-dir OUT_DIR`` through ``etcsim.cli.main``, timing only that call;
with ``TRACE`` = 1 the layers are wrapped first and the spans are written
to ``OUT_DIR/spans.json`` after the call.  The result JSON holds the
import time, the call's wall time, its exit code and the peak RSS; the
process exits with the call's exit code.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This interpreter's own peak resident set size (``VmHWM``).

    Not ``ru_maxrss``: on Linux that keeps the spawning process's
    high-water mark across exec, so it would read the benchmark runner's
    size whenever the runner is the larger of the two.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    root, result_path = Path(argv[0]), Path(argv[1])
    import etcsim.cli
    imported = time.monotonic()
    src = (root / "src").resolve()
    if src not in Path(etcsim.cli.__file__).resolve().parents:
        print(f"etcsim was imported from {etcsim.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"imported": imported}
    code = 0
    if len(argv) > 2:
        scenario, out_dir, run_id, trace = argv[2], Path(argv[3]), int(argv[4]), argv[5] == "1"
        tracer = None
        if trace:
            from spans import Tracer
            tracer = Tracer(run_id)
            tracer.install()
        start = time.perf_counter()
        code = etcsim.cli.main(["simulate", scenario, "--out-dir", str(out_dir)])
        result["simulate_s"] = time.perf_counter() - start
        if tracer is not None:
            (out_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    result["exit_code"] = code
    result["peak_rss_kb"] = peak_rss_kb()
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
