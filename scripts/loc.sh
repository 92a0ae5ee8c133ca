#!/bin/sh
# Line count per package — the number ROADMAP.md tracks per PR.
# Every line of every *.py file counts (code, comments, docstrings).
set -e
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.py' | xargs cat | wc -l | tr -d ' '; }

listed=0
for part in core rl embedding db obs __main__.py; do
  lines=$(count "src/repro/$part")
  listed=$((listed + lines))
  printf '%-10s %6d\n' "${part%.py}" "$lines"
done
total=$(count src)
printf '%-10s %6d  (datasets, baselines, bench)\n' other "$((total - listed))"
printf '%-10s %6d\n' total "$total"
printf '%-10s %6d\n' tests "$(count tests)"
