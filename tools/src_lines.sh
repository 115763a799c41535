#!/usr/bin/env bash
# Prints the line count of the C++ sources (*.cpp, *.hpp) under
# src/zenesis/, one row per module plus a total, so a change can report
# how much code each module gained or lost.
#
# Usage:
#   tools/src_lines.sh          # counts the working tree
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in src/zenesis/*/; do
  module=$(basename "$dir")
  lines=$(find "$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
          xargs -0 cat | wc -l)
  printf '%-10s %6d\n' "$module" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
