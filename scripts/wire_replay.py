#!/usr/bin/env python3
"""Replays a wire script against a fresh case-study server.

Usage: wire_replay.py <upsim-binary> <script>

Starts `<upsim-binary> serve --case-study --workers 2 --addr 127.0.0.1:0`,
reads the port from its banner, sends the script's commands one line at
a time over one connection, and prints each reply on its own line.
`PROGRESS` lines are skipped and ` micros=<n>` is stripped, so the output
holds no timing and can be diffed against a golden file
(`scripts/wire_golden.txt`). Blank script lines are ignored. Exits 1 if
the server does not start or a reply does not arrive.
"""

import re
import socket
import subprocess
import sys

MICROS = re.compile(r" micros=\d+")
BANNER = re.compile(r"listening on (\S+):(\d+)")
REPLY_TIMEOUT_S = 120


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    binary, script = sys.argv[1], sys.argv[2]
    with open(script, encoding="utf-8") as f:
        commands = [line.strip() for line in f if line.strip()]
    server = subprocess.Popen(
        [binary, "serve", "--case-study", "--workers", "2", "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        port = None
        for line in server.stdout:
            match = BANNER.search(line)
            if match:
                port = int(match.group(2))
                break
        if port is None:
            sys.exit("server exited before printing its banner")
        with socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S) as sock:
            replies = sock.makefile("r", encoding="utf-8", newline="\n")
            for command in commands:
                sock.sendall((command + "\n").encode("utf-8"))
                while True:
                    reply = replies.readline()
                    if not reply:
                        sys.exit(f"connection closed before the reply to: {command}")
                    if not reply.startswith("PROGRESS"):
                        break
                print(MICROS.sub("", reply.rstrip("\n")))
            sock.sendall(b"SHUTDOWN\n")
            replies.readline()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    main()
