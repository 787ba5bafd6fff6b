#!/usr/bin/env python3
"""List the library functions that no linked binary keeps.

Configures perfbench/ (which pulls in the repository's own build, so the
perfbench binary counts alongside the tests, benches, examples and CLI) with
-O0 -ffunction-sections -fdata-sections, links every binary with
--gc-sections, and compares libraptor.a's strong text symbols against the
text symbols each linked binary kept. (Data sections matter: a switch's jump
table in one shared .rodata section would keep its function alive.) A
function that no binary keeps is dead. A function that only test binaries
keep is test-only: reported, but not a failure.

Usage:
  python3 tools/dead_code.py [--build-dir DIR] [--jobs N]

The build goes to DIR (default .dead_code_build) and is reused by later runs.
Exits 1 when any dead function is listed, 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr)
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def build(build_dir, jobs):
    configure = [
        "cmake", "-S", os.path.join(REPO, "perfbench"), "-B", build_dir,
        "-G", "Unix Makefiles",
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    # The repository's targets sit in an EXCLUDE_FROM_ALL subdirectory:
    # building in it makes every test, bench, example and the CLI.
    return (run(configure)
            and run(["make", "-C", build_dir, "-j", str(jobs)])
            and run(["make", "-C", os.path.join(build_dir, "raptor"),
                     "-j", str(jobs)]))


def text_symbols(path, types):
    out = subprocess.run(["nm", "--defined-only", path], capture_output=True,
                         text=True, check=True).stdout
    symbols = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            symbols.add(parts[2])
    return symbols


def binaries(build_dir):
    """(name, path) of every linked executable: the perfbench binary and
    each executable the repository's build made."""
    found = [("perfbench", os.path.join(build_dir, "perfbench"))]
    raptor_dir = os.path.join(build_dir, "raptor")
    for name in sorted(os.listdir(raptor_dir)):
        path = os.path.join(raptor_dir, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append((name, path))
    return found


def demangle(symbols):
    if not symbols:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(sorted(symbols)),
                         capture_output=True, text=True, check=True).stdout
    return sorted(out.splitlines())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=".dead_code_build")
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)
    if not build(build_dir, args.jobs):
        print("dead_code: build failed", file=sys.stderr)
        return 2

    library = text_symbols(os.path.join(build_dir, "raptor", "libraptor.a"),
                           "T")
    kept_by_tests, kept_by_others = set(), set()
    for name, path in binaries(build_dir):
        kept = text_symbols(path, "Tt") & library
        (kept_by_tests if name.endswith("_test") else kept_by_others).update(
            kept)
    dead = library - kept_by_tests - kept_by_others
    test_only = kept_by_tests - kept_by_others

    print(f"dead functions (no binary links them): {len(dead)}")
    for name in demangle(dead):
        print("  " + name)
    print(f"test-only functions (only tests link them): {len(test_only)}")
    for name in demangle(test_only):
        print("  " + name)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
