"""Line-protocol scorer stub used by the external-client tests.

Modes (argv[1], default "ok"):
  ok             : well-formed responses derived from the URLs
  garbage        : responses that violate the protocol
  truncate       : exits immediately, closing the stream
  echo           : answers each request with the request line itself
  bad-url URL    : like ok, but garbage for requests about URL (the LANG
                   url or the PAIR url_b)
  die-after K    : like ok for K replies, then exits

``client(mode, ...)`` starts the stub and returns a client talking to it over
pipes.
"""
import subprocess
import sys


def client(*args):
    """A ScorerClient on the stdin/stdout of a stub started with ``args``."""
    # Imported here: the stub also runs as a script, without bifocal on its path.
    from bifocal.external import ScorerClient

    proc = subprocess.Popen(
        [sys.executable, __file__, *(args or ("ok",))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, encoding="utf-8", bufsize=1,
    )

    def closer():
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()

    return ScorerClient(proc.stdout, proc.stdin, closer=closer)


def respond(line: str, mode: str) -> str:
    if mode == "garbage":
        return "not a number at all"
    kind, _, rest = line.partition("\t")
    if kind == "LANG":
        url = rest
        if "/fr/" in url:
            return "fra\t0.9 eng\t0.05 unk\t0.05"
        return "eng\t0.8 fra\t0.1 unk\t0.1"
    if kind == "PAIR":
        url_a, _, url_b = rest.partition("\t")
        return "0.75" if url_a.split("/")[-1] == url_b.split("/")[-1] else "0.25"
    return "?"


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    if mode == "truncate":
        return
    replies_left = int(sys.argv[2]) if mode == "die-after" else -1
    for line in sys.stdin:
        if replies_left == 0:
            return
        replies_left -= 1
        request = line.rstrip("\n")
        if mode == "echo":
            reply = request
        elif mode == "bad-url" and request.rsplit("\t", 1)[-1] == sys.argv[2]:
            reply = "garbage"
        else:
            reply = respond(request, mode)
        print(reply, flush=True)


if __name__ == "__main__":
    main()
