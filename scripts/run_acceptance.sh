#!/bin/sh
# Full acceptance run: one PASS line per criterion, log teed to
# acceptance_log.txt at the repository root.  Exits with pytest's status:
# /bin/sh has no pipefail, so the status leaves the pipe on fd 3.
cd "$(dirname "$0")/.." || exit 1
PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
exec 4>&1
status=$( { { python3 -m pytest tests/test_acceptance.py -v -s "$@" 2>&1; echo $? >&3; } \
    | tee acceptance_log.txt >&4; } 3>&1 )
exit "$status"
