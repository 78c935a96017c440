#!/bin/sh
# Check which of the collision engine's trajectories a change moves:
#
#   scripts/engine_digest.sh REV
#   scripts/engine_digest.sh --record
#
# A fixed set of stacked runs is played: simulate_kac, simulate_thermostat
# with and without the bath (nu = 0.8 and 0, both rate conventions) and
# simulate_kac_coupled at d = 1, 2, 3, on ordinary streams and on streams
# whose clocks refill, for each snapshot case: none, snapshots at t0,
# repeated and at t_end, and a last snapshot before t_end; and segments
# longer than one play chunk.  A SHA-256 over every snapshot's time and
# coordinates and every stream's draw counter is taken per group (model x
# snapshot case), and one over all groups.
#
# --record writes the working tree's group digests to
# tests/engine_digest.golden, one `group sha256` line per group.
#
# REV plays revision REV and the working tree on this machine, side by
# side: digests may depend on the numpy build, so no digest recorded on
# another machine is compared.  REV is exported with `git archive | tar
# -x` into a temporary directory, so no worktree is added and nothing
# under .git changes.  The golden file declares the groups a change moves: those
# whose line differs between REV's file and the working tree's (none when
# REV has no file).  Exits 1 unless the groups whose digests differ between
# the two trees are exactly the declared ones.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REV | $0 --record" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/tests/engine_digest.golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

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

play() {  # play SRC: the digests of the package under SRC
    (cd "$tmp" && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1" python3 digest.py)
}

if [ "$1" = --record ]; then
    play "$root/src" | grep -v '^overall ' > "$golden"
    echo "recorded $(wc -l < "$golden") group digests in tests/engine_digest.golden"
    exit 0
fi
rev=$1
if [ ! -f "$golden" ]; then
    echo "error: no tests/engine_digest.golden; write it with $0 --record" >&2
    exit 2
fi
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
play "$tmp/rev/src" > "$tmp/old"
play "$root/src" > "$tmp/new"
if [ -f "$tmp/rev/tests/engine_digest.golden" ]; then
    cp "$tmp/rev/tests/engine_digest.golden" "$tmp/golden.rev"
else  # a revision without the file declares no change
    cp "$golden" "$tmp/golden.rev"
fi

python3 - "$tmp/old" "$tmp/new" "$tmp/golden.rev" "$golden" "$rev" <<'EOF'
import sys


def read(path):
    return dict(line.split() for line in open(path) if line.strip())


old, new, golden_rev, golden = map(read, sys.argv[1:5])
rev = sys.argv[5]
overall = old.pop("overall"), new.pop("overall")
groups = sorted(set(old) | set(new) | set(golden_rev) | set(golden))
differ = {g for g in groups if old.get(g) != new.get(g)}
declared = {g for g in groups if golden_rev.get(g) != golden.get(g)}
print(f"{'group':<30} {rev[:16]:<16} {'working tree':<16} {'played':<8} golden")
for g in groups:
    print(f"{g:<30} {old.get(g, '-'):<16.16} {new.get(g, '-'):<16.16} "
          f"{'DIFFERS' if g in differ else 'equal':<8} {'moved' if g in declared else 'kept'}")
print(f"{overall[0]}  {rev}")
print(f"{overall[1]}  working tree")
if differ != declared:
    print("the groups that differ are not the groups whose golden line changed: "
          + ", ".join(sorted(differ ^ declared)), file=sys.stderr)
    sys.exit(1)
EOF
