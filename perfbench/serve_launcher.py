"""Start ``repro.serve.serve`` on a given store, optionally traced.

The benchmark starts the server through this launcher rather than
``python -m repro serve`` so that, in the traced run, the span wrappers
are installed before the server imports its layers and forks its pool
(the workers inherit them).  On SIGTERM the server stops, the process
pool is joined and the store closed, then the spans are written and the
launcher exits 0.

Usage: ``python perfbench/serve_launcher.py STORE_PATH WORKERS [TRACE_DIR]``.
Prints ``LISTENING <host> <port>`` once the socket is bound.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    store_path, workers = argv[0], int(argv[1])
    rec = None
    if len(argv) > 2:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        rec = spans.install(Path(argv[2]))

    from repro.runspec import engine
    from repro.serve import serve
    from repro.store import ResultStore

    store = ResultStore(store_path)

    def ready(bound) -> None:
        print(f"LISTENING {bound[0]} {bound[1]}", flush=True)

    async def run() -> None:
        task = asyncio.current_task()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
        try:
            await serve("127.0.0.1", 0, store=store, workers=workers, ready=ready)
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    finally:
        engine.shutdown()
        store.close()
        if rec is not None:
            rec.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
