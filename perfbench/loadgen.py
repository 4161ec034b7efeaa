"""Load generator for the ``serve_loopback`` workload.

Runs ``--clients`` :class:`repro.serve.ServiceClient` connections, one
worker each, as threads of this one process, against a service on
``--host``/``--port``.  Every local-training call is timed with the
system-wide monotonic clock, so the service process can place each
interval in its own rounds.  Writes ``{"intervals": [[start, end],
...], "completed": [...]}`` to ``--out`` once the service drains.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.runtime import pool
    from repro.serve import ServiceClient

    intervals = []
    train = pool._handle_train

    def timed_train(*call_args):
        start = time.perf_counter()
        try:
            return train(*call_args)
        finally:
            intervals.append((start, time.perf_counter()))

    pool._handle_train = timed_train

    clients = [ServiceClient((args.host, args.port))
               for _ in range(args.clients)]
    errors = []

    def serve(client):
        try:
            client.run()
        except Exception:
            errors.append(traceback.format_exc())

    threads = [threading.Thread(target=serve, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with open(args.out, "w") as handle:
        json.dump({"intervals": intervals,
                   "completed": [client.completed for client in clients],
                   "errors": errors}, handle)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
