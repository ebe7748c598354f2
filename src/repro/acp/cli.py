"""Operator commands for the Adaptation Control Plane.

Dispatched from the main ``hars-repro`` entry point::

    hars-repro serve --socket /tmp/acp.sock [--http PORT] [--state-dir D]
    hars-repro attach --endpoint unix:///tmp/acp.sock \\
        --version mp-hars-ei --bench swaptions,bodytrack --units 200
    hars-repro sessions --endpoint unix:///tmp/acp.sock
    hars-repro swap-policy --endpoint unix:///tmp/acp.sock s0001 hars-i

``serve`` blocks until interrupted and announces its endpoints on
stdout (one ``acp: listening on <endpoint>`` line each — scripts parse
these to find an ephemeral ``--http 0`` port).  ``attach`` runs the
configured workload to completion on the daemon and prints the per-app
summary; ``--detach-after-start`` instead leaves it running for later
``sessions`` / ``swap-policy`` calls.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional

from repro.errors import ConfigurationError

#: The subcommands this module owns (the main CLI forwards these).
ACP_COMMANDS = ("serve", "attach", "sessions", "swap-policy")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hars-repro",
        description="Adaptation Control Plane operator commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the ACP daemon")
    serve.add_argument("--socket", default=None, metavar="PATH")
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve HTTP (0 picks an ephemeral port)",
    )
    serve.add_argument("--state-dir", default=None, metavar="DIR")
    serve.add_argument(
        "--quantum",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated seconds per segment between command drains",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="orphan sessions whose clients send no frame for this long "
        "(default: sessions never expire)",
    )

    attach = sub.add_parser("attach", help="attach a run to a daemon")
    attach.add_argument("--endpoint", required=True)
    attach.add_argument("--version", default="hars-ei")
    attach.add_argument(
        "--bench",
        default="swaptions",
        help="benchmark, or comma-separated list for a multi-app run",
    )
    attach.add_argument("--units", type=int, default=None)
    attach.add_argument("--target", type=float, default=0.5)
    attach.add_argument("--seed", type=int, default=0)
    attach.add_argument("--session-id", default=None)
    attach.add_argument(
        "--resume",
        default=None,
        metavar="SESSION",
        help="warm-restore from a recovered checkpoint store "
        "('-' means the --session-id store)",
    )
    attach.add_argument(
        "--detach-after-start",
        action="store_true",
        help="start the run and return (daemon keeps driving it)",
    )

    sessions = sub.add_parser("sessions", help="list a daemon's sessions")
    sessions.add_argument("--endpoint", required=True)

    swap = sub.add_parser(
        "swap-policy", help="hot-swap a running session's policy"
    )
    swap.add_argument("--endpoint", required=True)
    swap.add_argument("session_id")
    swap.add_argument("policy")
    swap.add_argument("--adapt-every", type=int, default=None)
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.acp.transport import AcpDaemon

    daemon = AcpDaemon(
        socket_path=args.socket,
        http_port=args.http,
        state_dir=args.state_dir,
        quantum_s=args.quantum,
        lease_ttl_s=args.lease_ttl,
    )
    daemon.start()
    for endpoint in daemon.endpoints():
        print(f"acp: listening on {endpoint}", flush=True)
    if daemon.acp.ledger:
        for entry in daemon.acp.ledger:
            print(f"acp: recovery ledger: {entry}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    return 0


def _cmd_attach(args: argparse.Namespace) -> int:
    from repro.acp.client import AcpClient
    from repro.experiments.runner import RunShape

    benches = [b.strip() for b in args.bench.split(",") if b.strip()]
    shapes = [
        RunShape(
            benchmark=bench,
            n_units=args.units,
            target_fraction=args.target,
            seed=args.seed,
        )
        for bench in benches
    ]
    resume = args.resume
    if resume == "-":
        if args.session_id is None:
            raise ConfigurationError("--resume - needs --session-id")
        resume = True
    with AcpClient(args.endpoint) as client:
        handle = client.attach(
            args.version,
            shapes if len(shapes) > 1 else shapes[0],
            session_id=args.session_id,
            resume=resume,
        )
        print(f"acp: attached {handle.session_id} ({args.version}: "
              f"{', '.join(benches)})")
        status = handle.run()
        if args.detach_after_start:
            print(f"acp: running in the background, state={status['state']}")
            return 0
        outcome = handle.result()
        for app in outcome.metrics.apps:
            print(
                f"  {app.app_name}: heartbeats={app.heartbeats}  "
                f"rate={app.overall_rate:.2f} hb/s  "
                f"norm-perf={app.mean_normalized_perf:.3f}"
            )
        handle.detach()
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    from repro.acp.client import AcpClient

    with AcpClient(args.endpoint) as client:
        listing = client.sessions()
    if not listing["sessions"]:
        print("acp: no sessions attached")
    for status in listing["sessions"]:
        line = (
            f"  {status['session_id']}  state={status['state']}  "
            f"version={status['version']}  t={status['time_s']:.2f}s  "
            f"apps={','.join(status['apps'])}"
        )
        if status.get("error"):
            line += f"  error={status['error']}"
        print(line)
    for status in listing.get("orphaned", []):
        print(
            f"  {status['session_id']}  state=orphaned  "
            f"(lease expired while {status.get('prior_state', '?')}; "
            f"attach --resume {status['session_id']} to recover)"
        )
    if listing["recovered"]:
        print(f"acp: recovered checkpoint stores: "
              f"{', '.join(listing['recovered'])}")
    for entry in listing["ledger"]:
        print(f"acp: recovery ledger: {entry}")
    return 0


def _cmd_swap_policy(args: argparse.Namespace) -> int:
    from repro.acp.client import AcpClient

    with AcpClient(args.endpoint) as client:
        result = client.session(args.session_id).swap_policy(
            args.policy, adapt_every=args.adapt_every
        )
    print(
        f"acp: {args.session_id} now under {result['policy']} "
        f"(controllers: {', '.join(result['controllers'])}, "
        f"t={result['time_s']:.2f}s)"
    )
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "attach": _cmd_attach,
    "sessions": _cmd_sessions,
    "swap-policy": _cmd_swap_policy,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"acp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised by the smoke script
    sys.exit(main())
