"""One `llbar` invocation in a fresh process, with its cost recorded.

    python3 child.py RESULT_JSON MODE LLBAR_ARG...

MODE is `setup` (set-up time only, the entry point is not called),
`plain` (set-up time, entry-point wall time, peak RSS), `trace`
(the same run with every layer wrapped by tracing.py; add `-X importtime`
to the interpreter for the import metrics) or `memory` (tracemalloc peak
during the study call, nothing else). Only `sys` and `time` are imported
before the set-up clock starts.
"""

import sys
import time

t0 = time.perf_counter()
import llbar.cli  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402

result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
result = {"llbar_file": llbar.__file__, "setup_s": t1 - t0}
tracer = None
peaks = []
if mode == "trace":
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
elif mode == "memory":
    import tracemalloc

    from tracing import STUDY_NAMES

    def _measured(fn):
        def study(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        return study

    for name in STUDY_NAMES:
        if hasattr(llbar.cli, name):
            setattr(llbar.cli, name, _measured(getattr(llbar.cli, name)))

if mode == "setup":
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    sys.exit(0)

t2 = time.perf_counter()
rc = llbar.cli.main(argv)
t3 = time.perf_counter()
sys.stdout.flush()
result.update(returncode=rc, wall_s=t3 - t2,
              peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
if tracer is not None:
    from tracing import layer_metrics

    result["study_seen"] = any(span[0] == "study" for span in tracer.spans)
    result["layers"], result["not_reached"], result["missing"] = layer_metrics(tracer)
if mode == "memory":
    result["study_peak_mb"] = max(peaks, default=0.0)
with open(result_path, "w") as fh:
    json.dump(result, fh)
