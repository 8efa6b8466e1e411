#!/usr/bin/env python3
"""Replays a wire script against fresh case-study servers at 1, 2 and 4 workers.

Usage: wire_replay.py <upsim-binary> <script>

For each worker count in `WORKERS`, starts `<upsim-binary> serve
--case-study --workers <n> --addr 127.0.0.1:0`, reads the port from its
banner, sends the script's commands one line at a time over one
connection, and collects each reply on its own line. `PROGRESS` lines are
skipped, ` micros=<n>` is stripped, and every value of a `STATS` reply is
masked (`key=<value>` becomes `key=`), so the output holds no timing, a
`STATS` line records only its keys and their order, and the output can be
diffed against a golden file (`scripts/wire_golden.txt`). Blank
script lines are ignored. Prints the replies if every server gave the same
ones. Exits 1 if they differ (naming the first differing line), if a
server does not start, or if a reply does not arrive. On one worker no
helper job is ever posted, so every claim run finishes on the worker that
took it.
"""

import re
import socket
import subprocess
import sys

MICROS = re.compile(r" micros=\d+")
VALUE = re.compile(r"=\S*")
BANNER = re.compile(r"listening on (\S+):(\d+)")
REPLY_TIMEOUT_S = 120
WORKERS = (1, 2, 4)


def replay(binary, commands, workers):
    """The replies of a fresh server with `workers` workers, one per command."""
    server = subprocess.Popen(
        [binary, "serve", "--case-study", "--workers", str(workers), "--addr", "127.0.0.1:0"],
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
            sys.exit(f"server with {workers} workers exited before printing its banner")
        lines = []
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
                reply = MICROS.sub("", reply.rstrip("\n"))
                if command.upper() == "STATS":
                    reply = VALUE.sub("=", reply)
                lines.append(reply)
            sock.sendall(b"SHUTDOWN\n")
            replies.readline()
        server.wait(timeout=30)
        return lines
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    binary, script = sys.argv[1], sys.argv[2]
    with open(script, encoding="utf-8") as f:
        commands = [line.strip() for line in f if line.strip()]
    outputs = {workers: replay(binary, commands, workers) for workers in WORKERS}
    first = outputs[WORKERS[0]]
    for workers, lines in outputs.items():
        for number, (line, expected) in enumerate(zip(lines, first), start=1):
            if line != expected:
                sys.exit(
                    f"line {number} differs between {WORKERS[0]} and {workers} workers:\n"
                    f"  {expected}\n  {line}"
                )
    for line in first:
        print(line)


if __name__ == "__main__":
    main()
