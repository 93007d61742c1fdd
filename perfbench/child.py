"""One measured process: import corrspectra, call ``cli.main(argv)`` once.

Usage: python3 child.py SRC_DIR RESULT_JSON TRACE(0|1) -- CLI_ARGS...

Writes RESULT_JSON with the exit code, the wall and CPU seconds of the
``cli.main`` call, the import time, the peak RSS and, when TRACE is 1, the
recorded spans. CPU seconds include child processes that ``cli.main``
started and waited for (a worker pool, say), and the peak RSS is the larger
of this process's and its largest child's. With TRACE 0 nothing in
corrspectra is replaced.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    src_dir, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src_dir)

    t0 = time.perf_counter()
    import corrspectra.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    main_fn = cli.main
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap(cli.main, "cli.main")

    cpu0 = time.process_time()
    children0 = _cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN))
    t1 = time.perf_counter()
    try:
        code = main_fn(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t1
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = time.process_time() - cpu0 + _cpu_s(children) - children0

    result = {
        "exit_code": code,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "import_s": import_s,
        # ru_maxrss is in KiB on Linux. For children it is the largest
        # single child's peak, not the sum of concurrent children.
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           children.ru_maxrss) / 1024.0,
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
