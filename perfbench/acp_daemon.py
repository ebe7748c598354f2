"""Start the ACP daemon (``hars-repro serve``) for the acp_control workload.

Usage: ``python3 perfbench/acp_daemon.py SOCKET [SPANS.npz]``

Calls the ``serve`` entry point on a Unix socket.  Given a spans path,
it first wraps the layer entry points (:func:`spans.install`) and writes
the daemon's spans there once the daemon stops.  SIGINT and SIGTERM both
stop it cleanly.
"""

import signal
import sys


def main(argv):
    socket_path = argv[0]
    spans_path = argv[1] if len(argv) > 1 else None
    # A parent that ignores SIGINT (a background job) must not leave
    # this daemon deaf to it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.install()
    from repro.acp.cli import main as acp_main

    try:
        return acp_main(["serve", "--socket", socket_path])
    finally:
        if tracer is not None:
            tracer.uninstall()
            counts = dict(tracer.counts)
            counts.update(tracer.estimation_counts())
            tracer.spans().save(spans_path, counts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
