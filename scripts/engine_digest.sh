#!/bin/sh
# Compare the collision engine's trajectories at a revision and in this
# working tree:
#
#   scripts/engine_digest.sh REV
#
# REV is exported with `git archive | tar -x` into a temporary directory,
# so no worktree is added and nothing under .git changes.  The same fixed
# set of stacked runs is played on each tree: simulate_kac,
# simulate_thermostat with and without the bath (nu = 0.8 and 0, both rate
# conventions) and simulate_kac_coupled at d = 1, 2, 3, on ordinary
# streams and on streams whose clocks refill, for each snapshot case: none,
# snapshots at t0, repeated and at t_end, and a last snapshot before t_end;
# and segments longer than one play chunk.  A SHA-256 over every
# snapshot's time and coordinates and every stream's draw counter is
# printed per group (model x snapshot case), both trees side by side, and
# one over all groups.  Exits 1 when any digest differs.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"

cat > "$tmp/digest.py" <<'EOF'
import hashlib

import numpy as np

from meanfield.core import RngStream, gaussian_sample_state
from meanfield.elastic import AngularKernel, simulate_kac, simulate_kac_coupled
from meanfield.thermostat import RestitutionParams, simulate_thermostat


class RefillingStream(RngStream):
    """Uniform words raised to the power 1/32: the exponential gaps shrink
    32-fold, so every clock runs out before t_end and refills, several times."""

    def uniform_words(self, out):
        return np.power(super().uniform_words(out), 1.0 / 32.0, out=out)


digests = {}


def feed(group, states, rngs):
    for digest in (digests.setdefault(group, hashlib.sha256()),
                   digests.setdefault("overall", hashlib.sha256())):
        for s in states:
            digest.update(np.float64(s.time).tobytes())
            digest.update(s.coords.tobytes())
        digest.update(np.array([r.draw_counter for r in rngs], dtype=np.int64).tobytes())


def start(n, d, reps, seed):
    return gaussian_sample_state(np.zeros(d), np.ones(d), n,
                                 [RngStream(seed, 1000 + r) for r in range(reps)])


t0, t_end = 0.25, 2.0
kernels = {1: [AngularKernel.two_point(0.3, 0.7)],
           2: [AngularKernel.isotropic(2)],
           3: [AngularKernel.isotropic(3),
               AngularKernel(dim=3, density=lambda c: 1.0 + 0.5 * c, name="tilted")]}
cases = {"no-snapshots": [], "ends-at-last": [t0, t0, 0.5, 1.25, 1.25, t_end],
         "past-last": [0.5, 1.25]}
seed = 0
for d, kerns in kernels.items():
    for kernel in kerns:
        for case, snaps in cases.items():
            for stream in (RngStream, RefillingStream):
                seed += 1
                reps, n = 3, 6
                init = start(n, d, reps, seed)
                init.time = t0
                rngs = [stream(seed, r) for r in range(reps)]
                feed(f"kac/{case}", simulate_kac(init, kernel, t_end, snaps, rngs), rngs)
                for model, nu, ids in (("thermostat", 0.8, 10), ("thermostat-nu0", 0.0, 30)):
                    for ordered in (True, False):
                        rngs = [stream(seed, ids + r) for r in range(reps)]
                        params = RestitutionParams(alpha=0.6, nu=nu, dim=d)
                        feed(f"{model}/{case}",
                             simulate_thermostat(init, kernel, params, t_end, snaps, rngs,
                                                 ordered_pair_rate=ordered), rngs)
                init_b = start(n, d, reps, seed + 500)
                init_b.time = t0
                rngs = [stream(seed, 20 + r) for r in range(reps)]
                out_a, out_b = simulate_kac_coupled(init, init_b, kernel, t_end, snaps, rngs)
                feed(f"coupled/{case}", out_a + out_b, rngs)
# segments longer than one play chunk, with and without the bath
for d in (1, 3):
    kernel = kernels[d][0]
    init = start(256, d, 2, 77)
    rngs = [RngStream(77, r) for r in range(2)]
    feed("kac/long-segments", simulate_kac(init, kernel, 40.0, [20.0, 40.0], rngs), rngs)
    for model, nu, seed in (("thermostat", 1.0, 78), ("thermostat-nu0", 0.0, 79)):
        rngs = [RngStream(seed, r) for r in range(2)]
        params = RestitutionParams(alpha=0.5, nu=nu, dim=d)
        feed(f"{model}/long-segments",
             simulate_thermostat(init, kernel, params, 40.0, [40.0], rngs), rngs)
overall = digests.pop("overall")
for group, digest in sorted(digests.items()):
    print(group, digest.hexdigest())
print("overall", overall.hexdigest())
EOF

(cd "$tmp" && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$tmp/rev/src" python3 digest.py) > "$tmp/old"
(cd "$tmp" && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$root/src" python3 digest.py) > "$tmp/new"
printf '%-30s %-16s %-16s\n' group "$rev" "working tree"
paste -d ' ' "$tmp/old" "$tmp/new" | while read -r group old _ new; do
    if [ "$old" = "$new" ]; then verdict=equal; else verdict=DIFFERS; fi
    printf '%-30s %.16s %.16s %s\n' "$group" "$old" "$new" "$verdict"
done
echo "$(sed -n 's/^overall //p' "$tmp/old")  $rev"
echo "$(sed -n 's/^overall //p' "$tmp/new")  working tree"
if ! cmp -s "$tmp/old" "$tmp/new"; then
    echo "engine digests differ" >&2
    exit 1
fi
