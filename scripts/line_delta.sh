#!/usr/bin/env bash
# Prints added, removed and net lines under src/, bench/, tools/ and tests/ between BASE and the
# working tree (staged, unstaged and untracked files alike), per directory and in total, from
# `git diff --numstat`. Usage: scripts/line_delta.sh BASE   (e.g. scripts/line_delta.sh HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
base=$1
dirs=(src bench tools tests)

# Tracked changes from `git diff --numstat BASE`; untracked files are not in that diff, so each
# one is diffed against /dev/null (read-only: the index is never touched). Binary files ("-")
# are skipped.
{
  git diff --numstat "$base" -- "${dirs[@]}"
  git ls-files -z --others --exclude-standard -- "${dirs[@]}" |
    while IFS= read -r -d '' file; do
      git diff --no-index --numstat /dev/null "$file" || true
    done
} | awk -v dirs="${dirs[*]}" '
  BEGIN { n = split(dirs, order, " ") }
  $1 != "-" {
    split($NF, parts, "/")  # $NF: the new path of a "/dev/null => FILE" line
    added[parts[1]] += $1; removed[parts[1]] += $2
    total_added += $1; total_removed += $2
  }
  END {
    printf "%-8s %8s %8s %8s\n", "dir", "added", "removed", "net"
    for (i = 1; i <= n; ++i) {
      d = order[i]
      printf "%-8s %8d %8d %+8d\n", d, added[d], removed[d], added[d] - removed[d]
    }
    printf "%-8s %8d %8d %+8d\n", "total", total_added, total_removed, total_added - total_removed
  }'
