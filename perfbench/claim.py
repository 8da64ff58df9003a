"""Are rho1's orbits faster to close at a rational point than symbolically?

The package README says rational specializations run faster.  This script
closes the extended and the pure orbit of catalog ``rho1`` symbolically and
at ``u=3/2, v=-7``, alternating symbolic and specialized in one process so
that both see the same machine state, checks the orbit sizes, and prints
the medians::

    python3 perfbench/claim.py
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from quintic_garnier import braids, families  # noqa: E402
from workloads import at_point  # noqa: E402

POINT = {"u": Fraction(3, 2), "v": Fraction(-7)}
ROUNDS = 10

SIZES = {"extended": 240, "pure": 4}


def close(mode: str, rep):
    if mode == "extended":
        return braids.extended_orbit(rep)
    return braids.orbit(rep, braids.pure_generators())


def main() -> int:
    symbolic = families.builtin_family("rho1").rep
    reps = {"symbolic": symbolic, "u=3/2,v=-7": at_point(symbolic, POINT)}
    for mode, size in SIZES.items():
        times: dict[str, list[float]] = {name: [] for name in reps}
        for i in range(ROUNDS):
            for name in (list(reps) if i % 2 == 0 else list(reversed(reps))):
                start = time.perf_counter()
                res = close(mode, reps[name])
                times[name].append(time.perf_counter() - start)
                if len(res) != size:
                    print(f"error: {mode} {name} orbit has {len(res)} elements, "
                          f"not {size}", file=sys.stderr)
                    return 1
        for name, xs in times.items():
            q = statistics.quantiles(xs, n=4)
            print(f"rho1 {mode:<8} {name:<12} median {statistics.median(xs):.4f} s"
                  f"  quartiles {q[0]:.4f}..{q[2]:.4f} s  n={len(xs)}")
        point, sym = times["u=3/2,v=-7"], times["symbolic"]
        wins = sum(a < b for a, b in zip(point, sym))
        print(f"rho1 {mode:<8} at-point / symbolic median ratio "
              f"{statistics.median(point) / statistics.median(sym):.3f}; "
              f"point faster in {wins} of {ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
