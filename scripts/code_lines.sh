#!/bin/sh
# Code lines per Rust source file: non-blank, non-`//` lines above the
# file's first `#[cfg(test)]` at column 0 (so doc comments, comments and
# in-file unit test modules do not count, while an indented
# `#[cfg(test)]` on a field or statement ends nothing). The measure
# every simplicity PR quotes.
#
# usage: scripts/code_lines.sh [path ...]     (default: crates/*/src)
# Prints `<lines> <file>` per file, then `<sum> total`.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src
find "$@" -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; done = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    done || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { n++; total++ }
    END { if (file != "") printf "%6d %s\n", n, file; printf "%6d total\n", total }'
