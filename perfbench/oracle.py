"""Ground-truth scorer process for the external-scorer crawl.

Usage: python3 oracle.py GRAPH_JSON

Answers the line protocol of ``bifocal.external`` from the site graph's
ground truth: ``LANG<TAB>url`` gets ``<lang><TAB>1.0`` (``unk`` for a URL not
in the graph) and ``PAIR<TAB>a<TAB>b`` gets ``1.0`` when ``b`` is a parallel
partner of ``a``, else ``0.0``.

It imports nothing from ``bifocal``, so its cost is the same on every commit.
It listens on 127.0.0.1, prints ``PORT <n>`` once ready, and serves exactly two
connections at once, because ``simulate`` opens one per external scorer.  When
both have closed it prints one JSON line with the CPU seconds it spent
serving and exits.
"""
from __future__ import annotations

import json
import socket
import sys
import threading
import time

CONNECTIONS = 2
ACCEPT_TIMEOUT_S = 120.0


def serve(conn: socket.socket, lang_of: dict, partners: dict) -> None:
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader, \
            conn.makefile("w", encoding="utf-8", newline="\n") as writer:
        for line in reader:
            kind, _, rest = line.rstrip("\n").partition("\t")
            if kind == "LANG":
                reply = f"{lang_of.get(rest, 'unk')}\t1.0"
            elif kind == "PAIR":
                url_a, _, url_b = rest.partition("\t")
                reply = "1.0" if url_b in partners.get(url_a, ()) else "0.0"
            else:
                reply = "?"
            writer.write(reply + "\n")
            writer.flush()


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        pages = json.load(handle)["pages"]
    lang_of = {url: page["lang"] for url, page in pages.items()}
    partners = {url: frozenset(page["parallel_with"]) for url, page in pages.items()}
    del pages

    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(ACCEPT_TIMEOUT_S)
        print(f"PORT {server.getsockname()[1]}", flush=True)
        cpu_start = time.process_time()
        threads = []
        for _ in range(CONNECTIONS):
            conn, _ = server.accept()
            conn.settimeout(None)
            thread = threading.Thread(target=serve, args=(conn, lang_of, partners))
            thread.start()
            threads.append(thread)
    for thread in threads:
        thread.join()
    print(json.dumps({"cpu_s": time.process_time() - cpu_start}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
