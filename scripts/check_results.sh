#!/bin/sh
# Rerun scripts/run_experiments.sh and fail if any committed results/*.csv
# changes (or a new one appears): the CSV must reproduce byte for byte.
set -e
cd "$(dirname "$0")/.."
sh scripts/run_experiments.sh
if [ -n "$(git status --porcelain -- results/)" ]; then
    git diff --stat -- results/
    git status --short -- results/
    echo "results/ does not reproduce" >&2
    exit 1
fi
echo "results/ reproduces byte for byte"
