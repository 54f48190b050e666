"""One pass of a workload, in a fresh process on one thread.

    python3 perfbench/worker.py SRC [INPUT OUTPUT [SPANS]]

Imports ``cauchykl.cli`` from SRC and builds its parser first, timing
that as the set-up every ``cauchykl`` process pays; with SRC alone it
stops there. Then it runs each segment of INPUT (written by run.py)
through ``cli.main`` with the segment's arguments and standard input,
with the reference loop of calib.py run before, during and after each
call to scale its time. The program's output goes to OUTPUT; timings,
exit codes and peak memory go to standard output as one JSON object.
With SPANS the layers are traced (spans.py): the spans are written to
SPANS and their summary is added to the object.
"""

import sys
import time


def _setup(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    from cauchykl import cli

    cli.build_parser()
    return cli, time.perf_counter() - start


def main(argv: list[str]) -> int:
    cli, setup_s = _setup(argv[1])

    import io
    import json
    import resource

    import calib
    import spans

    setup_loop_s = calib.measure(5 * calib.LOOPS) / 5
    if len(argv) == 2:
        json.dump({"setup_s": setup_s, "setup_loop_s": setup_loop_s}, sys.stdout)
        return 0
    input_path, output_path = argv[2:4]
    spans_path = argv[4] if len(argv) > 4 else None
    with open(input_path) as fh:
        segments = json.load(fh)["segments"]
    sampler = calib.Sampler()
    tracer = None
    run = cli.main
    if spans_path:
        tracer = spans.Tracer(sampler.clock)
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    real_stdin, real_stdout = sys.stdin, sys.stdout
    calls = []
    with open(output_path, "w") as out:
        for index, segment in enumerate(segments):
            text = segment["stdin"]
            if tracer:
                tracer.record = index
                feed = spans.LineFeed(tracer, text)
            else:
                feed = io.StringIO(text)
            sink = io.StringIO()
            sys.stdin, sys.stdout = feed, sink
            error = None
            with sampler:
                start = sampler.clock()
                try:
                    rc = run(segment["argv"])
                except (Exception, SystemExit) as exc:
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                end = sampler.clock()
            sys.stdin, sys.stdout = real_stdin, real_stdout
            output = sink.getvalue()
            out.write(output)
            calls.append({"start_ns": start, "end_ns": end, "loop_s": sampler.call_loop_s(),
                          "rc": rc, "error": error, "lines": output.count("\n")})

    result = {
        "setup_s": setup_s,
        "setup_loop_s": setup_loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer:
        tracer.write(spans_path)
        result["trace"] = spans.summarize(tracer.spans, [
            (c["start_ns"], c["end_ns"], calib.REFERENCE_S / c["loop_s"]) for c in calls])
    json.dump(result, real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
