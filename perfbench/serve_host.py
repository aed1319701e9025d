"""The allocation server's process for ``serve-testbed``.

``python3 -m perfbench.serve_host '<json args>'`` builds a
PolicyRegistry over the prepared artifact directory, an ExperienceStore
wired as ``on_serve_outcome`` (the wiring ``repro.loop`` documents) and
an AllocationServer with its default configuration on an ephemeral
loopback port.  It prints ``PORT <n>`` once listening and serves until
SIGTERM, then drains, flushes the store and writes its report: the
store's record count, this process's peak RSS and, when traced, the
span dump.
"""

from __future__ import annotations

import json
import signal
import sys
import threading


def main(argv: list) -> int:
    args = json.loads(argv[0])
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    tracer = None
    if args["trace"]:
        from perfbench import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.loop import ExperienceStore
    from repro.serve import AllocationServer, PolicyRegistry

    from perfbench.child import peak_rss_mb

    store = ExperienceStore(args["store"])
    server = AllocationServer(
        PolicyRegistry(args["registry"]), on_serve_outcome=store.record_served
    )
    server.start()
    print(f"PORT {server.address[1]}", flush=True)
    while not stop.wait(0.05):
        pass
    server.shutdown()
    store.flush()
    report = {
        "records": len(store),
        "drained": True,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["spans"] = args["out"] + ".spans.json"
        tracer.write(report["spans"])
    with open(args["out"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
