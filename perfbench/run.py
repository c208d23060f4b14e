#!/usr/bin/env python3
"""Builds and runs the benchmark: `python3 perfbench/run.py <args>`.

Run from the root of a checkout; every argument is passed to the
benchmark (see perfbench/README.md). The build maps the checkout's path to
`.` in the file names the binary embeds, so that where the checkout lies
does not move the binary's static data: the heap queues' shared statics
are not padded to cache lines, and which of them share a line (a factor
of two in native throughput) otherwise depends on the path's length.
"""

import os
import sys


def main() -> None:
    env = dict(os.environ)
    remap = f"--remap-path-prefix={os.getcwd()}=."
    env["RUSTFLAGS"] = " ".join(filter(None, [env.get("RUSTFLAGS", ""), remap]))
    command = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", "perfbench/Cargo.toml", "--", *sys.argv[1:]]
    os.execvpe(command[0], command, env)


if __name__ == "__main__":
    main()
