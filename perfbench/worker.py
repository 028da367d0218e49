"""One workload process: set up, then run timed passes until the time is used.

    python3 perfbench/worker.py --workload W --inputs FILE --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --inputs FILE --setup-only

`setup_s` runs from the first line of this file to the end of the workload's
build: importing stability_lab and building its inputs through the library.
With --trace 1 the passes alternate untraced and traced, so the same process
gives both sides of the tracing overhead. The reference kernel is timed
before the first pass and after every pass, so each pass has the machine's
speed on both sides of it. Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A run always makes at least this many passes of each kind it measures, so
# the digest is compared across passes, and the median drops one slow pass,
# even when one pass outlasts --seconds.
MIN_PASSES = 3


def _one_pass(lib, wl, state, recorder, pass_id: int, traced: bool) -> dict:
    record = {"pass": pass_id, "traced": traced}
    try:
        if traced:
            with tracing.Tracing(recorder, lib, state, pass_id):
                started = time.perf_counter()
                result = wl.run(lib, state)
                record["wall_s"] = time.perf_counter() - started
        else:
            started = time.perf_counter()
            result = wl.run(lib, state)
            record["wall_s"] = time.perf_counter() - started
        verdict = wl.judge(state, result)
    except Exception:  # a failing pass is counted, not fatal to the run
        traceback.print_exc(file=sys.stderr)
        record.update(problems=["pass raised: " + traceback.format_exc(limit=1).strip()],
                      digest=None, work={})
        return record
    record.update(problems=verdict.problems, digest=verdict.digest, work=verdict.work)
    if traced:
        record["layers"] = recorder.pass_metrics(pass_id)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced spans here (.npz)")
    args = parser.parse_args()

    with open(args.inputs, "r", encoding="utf-8") as fh:
        inputs = json.load(fh)
    wl = workloads.WORKLOADS[args.workload]
    lib = workloads.load_library()
    state = wl.build(lib, inputs)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "library": lib.core.__file__}))
        return 0

    recorder = tracing.SpanRecorder()
    kinds = (False, True) if args.trace else (False,)
    passes = []
    last_wall = {kind: 0.0 for kind in kinds}
    reference.seconds()  # builds the kernel's inputs and warms it up
    before = reference.seconds()
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = kinds[len(passes) % len(kinds)]
        enough = len(passes) >= MIN_PASSES * len(kinds)
        if enough and time.perf_counter() + last_wall[traced] > deadline:
            break
        record = _one_pass(lib, wl, state, recorder, len(passes), traced)
        after = reference.seconds()
        record["reference_s"] = [before, after]
        before = after
        last_wall[traced] = record.get("wall_s", 0.0)
        passes.append(record)

    if args.trace and args.spans:
        recorder.save(args.spans)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": rss_kb / 1024.0,
        "counter_errors": sorted(recorder.counter_errors),
        "library": lib.core.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
