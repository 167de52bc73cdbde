"""``python -m repro.server`` -- run a pod server from the shell.

Starts a :class:`~repro.server.frontend.PodServer` over one of the
commerce models, prints the listening URL on stdout (machine-readable:
the last whitespace-separated token of the first line), and serves
until SIGINT/SIGTERM, then drains: HTTP stops, every worker shuts down
and closes its store, and the process exits 0.

    $ python -m repro.server --workers 2 --port 8080 --store /tmp/pods
    pod server listening on http://127.0.0.1:8080
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.commerce.models import (
    build_buggy_store,
    build_friendly,
    build_guarded_store,
    build_short,
    default_database,
)
from repro.server.frontend import PodServer

#: name -> module-level transducer factory (must stay picklable for
#: the spawn-context workers).
MODELS = {
    "short": build_short,
    "friendly": build_friendly,
    "buggy": build_buggy_store,
    "guarded": build_guarded_store,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve commerce-model pods over HTTP.",
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--model",
        choices=sorted(MODELS),
        default=None,
        help="which commerce transducer the pods run (default: short)",
    )
    what.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help="serve a registered scenario's transducer + database "
        "instead (see `python -m repro.scenarios --list`)",
    )
    parser.add_argument(
        "--db-seed",
        type=int,
        default=0,
        help="scenario database seed (with --scenario; default 0)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="scenario database size knob (with --scenario)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free one and print it)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard worker processes (default: REPRO_SERVER_WORKERS "
        "or one per CPU, max 4)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="per-worker admission bound; overflow answers 429 "
        "(default: REPRO_SERVER_QUEUE_DEPTH or 64)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store root; one store per shard inside "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--store-kind", choices=("jsonl", "sqlite"), default="jsonl"
    )
    parser.add_argument(
        "--durability",
        choices=("full", "step"),
        default="step",
        help="SQLite durability mode (ignored for jsonl stores)",
    )
    parser.add_argument(
        "--no-logs",
        action="store_true",
        help="disable per-session log retention (load generation)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scenario is not None:
        # functools.partial over the module-level registry lookup stays
        # picklable for the spawn-context workers; the database is a
        # pure function of (name, seed, scale), so clients rebuild the
        # identical world locally for parity checks.
        from functools import partial

        from repro.scenarios import scenario_database, scenario_transducer

        factory = partial(scenario_transducer, args.scenario)
        database = scenario_database(
            args.scenario, seed=args.db_seed, scale=args.scale
        )
    else:
        factory = MODELS[args.model or "short"]
        database = default_database()
    server = PodServer(
        factory,
        database,
        workers=args.workers,
        queue_depth=args.queue_depth,
        store_root=args.store,
        store_kind=args.store_kind,
        durability=args.durability,
        keep_logs=not args.no_logs,
        host=args.host,
        port=args.port,
    )
    stop = threading.Event()

    def request_stop(signum, frame):
        stop.set()

    # Install the handlers before the server answers anything: a client
    # that sees /healthz and sends SIGTERM must get a clean shutdown,
    # not the default action (which orphans the worker processes).
    signal.signal(signal.SIGINT, request_stop)
    signal.signal(signal.SIGTERM, request_stop)
    server.start()
    print(f"pod server listening on {server.url}", flush=True)
    # Poll so a signal delivered to a non-main thread is still acted
    # on promptly (the handler only runs when the main thread wakes).
    while not stop.wait(0.5):
        pass
    server.shutdown()
    print("pod server shut down cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
