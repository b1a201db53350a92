"""Run one kbonacci CLI request in a fresh interpreter and report on it.

    python3 bench/worker.py ROOT MODE ARG...

ROOT is the checkout whose src/ holds the code under test.  MODE is
"plain", "time" (spans and counters) or "memory" (per-layer tracemalloc
peaks); see tracing.py.  ARG... is the kbonacci argv.

Prints two lines of JSON.  The first is an object: "ready" (perf_counter
reading once kbonacci.cli is imported and main can be called), "seconds"
(time inside main), "code", "output", "peak_rss_kb", "module"
(kbonacci.__file__) and, when traced, "trace".  The second is the list of
spans (empty unless MODE is "time").  Only sys, os and time are imported
before kbonacci.cli, so the parent's spawn-to-ready time is interpreter
start plus the CLI import, as a user pays it.
"""

import os
import sys
import time


def peak_rss() -> int:
    """Peak resident set size of this process in KiB.

    VmHWM, unlike ru_maxrss, starts afresh at exec: on Linux ru_maxrss keeps
    the high-water mark of the forked copy of the parent, so it would report
    the harness's size rather than the request's.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    root, mode, *argv = sys.argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = None
    if mode != "plain":
        import tracing

        tracer = tracing.Tracer(memory=mode == "memory")
        tracer.install_import_hook()
    import kbonacci.cli

    ready = time.perf_counter()
    import contextlib
    import io
    import json

    if tracer is not None:
        tracer.wrap_layers()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = kbonacci.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # a crash in the code under test is a failed request, not a
            # failed benchmark: the reference check counts the exit code
            import traceback

            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    peak_rss_kb = peak_rss()
    output = out.getvalue()
    report = {
        "ready": ready,
        "seconds": seconds,
        "code": code,
        "output": output,
        "peak_rss_kb": peak_rss_kb,
        "module": kbonacci.__file__,
    }
    spans = []
    if tracer is not None:
        report["trace"] = tracer.report()
        report["trace"]["output_bytes"] = len(output.encode())
        spans = report["trace"].pop("spans", [])
    # spans go on a line of their own so the parent can store them unparsed
    sys.stdout.write(json.dumps(report) + "\n" + json.dumps(spans) + "\n")


if __name__ == "__main__":
    main()
