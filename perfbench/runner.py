"""One workload pass in a fresh interpreter: import coinlab, run each CLI
invocation in-process through ``coinlab.cli.run``, and print one JSON line.

Usage: python3 runner.py SPEC_JSON, where the spec holds ``src`` (the
directory that holds the coinlab package), ``commands`` (argument lists for
``coinlab``), ``trace`` and ``setup_only``. ``ready`` in the output is
``time.monotonic()`` right after the import, which the parent compares with
its own clock reading taken before it started this process.
"""
import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import coinlab.cli as cli

    ready = time.monotonic()
    if spec.get("setup_only"):
        print(json.dumps({"ready": ready}))
        return 0

    import resource
    import traceback

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            codes.append(cli.run(argv))
        except Exception:  # a crash is a failed operation, reported to the parent
            traceback.print_exc()
            codes.append(None)
    wall = time.perf_counter() - start
    out = {
        "ready": ready,
        "wall_s": wall,
        "exit_codes": codes,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["trace"]["pool_start_s"] = tracer.pool_start_seconds()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
