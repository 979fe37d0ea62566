"""Run one torscat command in this fresh interpreter and report on it.

    python3 perfbench/child.py ROOT TRACE [CLI ARGS ...]

Imports ``torscat.cli`` from ROOT/src (timed: that is what every CLI call
pays), then calls ``torscat.cli.main`` with the arguments and its standard
output captured (timed).  With TRACE=1 the layers are wrapped first (see
tracer.py).  With no CLI arguments it only imports.  The report is one JSON
line on standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main():
    root, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import torscat.cli as cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"torscat was imported from {cli.__file__}, not from {src}")
    report = {"import_s": import_s}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                if tracer:
                    rc, main_s = tracer.run(cli.main, argv)
                else:
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    main_s = time.perf_counter() - t0
            except Exception:  # the command failed; the benchmark records why
                rc, main_s = traceback.format_exc(), None
        report.update(rc=rc, main_s=main_s, stdout=out.getvalue())
        if tracer:
            report.update(trace=tracer.snapshot(main_s or 0.0), tree=tracer.tree())
    import numpy
    import torscat

    report.update(
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        backend=getattr(torscat, "backend_name", lambda: "unknown")(),
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
