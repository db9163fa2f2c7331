#!/bin/sh
# Intentionally refresh the committed smoke baseline after an accepted
# metric change (then commit the diff and say why in the message). Usage:
#   bench/baselines/refresh.sh [path/to/dqma_bench]
# The SIMD level is pinned so that the refresh diff holds only deliberate
# metric changes, not ulp drift from whichever level the host detects.
exec "${1:-build/bench/dqma_bench}" --experiment all --smoke --simd avx2 --json "$(dirname "$0")/smoke.json"
