#!/usr/bin/env python3
"""Time the dense and the range path of the canonical form, per (d, rank of Im rho).

Run from the root of a checkout:

    python3 tools/canonical_paths.py --max-dim 128 --repeat 1

For each d in the sweep (up to --max-dim) and each rank r of a maximally
imaginary state (Im rho then has rank 2r), it times `linalg._dense_form`
and `linalg._range_form` with the k = 2r + _OVERSAMPLE columns a state's
hint would give, on the same skew part, and prints the median of
--repeat calls in ms, with the path `DensityMatrix.imag_canonical` takes
for that state.  It is the measured basis of `linalg._RANGE_FROM` and of
the rule that the range path runs when 4 * hint <= d; the sweep covers d
on both sides of the threshold.  A range time of "-" means k > d.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from imaginarity import linalg, states  # noqa: E402

DIMS = (32, 64, 96, 127, 128, 129, 192, 256, 512)


def median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=512)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    print(f"threshold d >= {linalg._RANGE_FROM}, range path when 4 * hint <= d")
    print(f"{'d':>5} {'rank':>5} {'hint':>5} {'k':>5} {'dense_ms':>9} {'range_ms':>9}  path")
    for d in (d for d in DIMS if d <= args.max_dim):
        for rank in sorted({1, max(1, d // 16), max(1, d // 8), d // 4}):
            rho = states.gen_max_imaginary(d, rank, d + rank)
            a = linalg._skew_part(rho.matrix.imag)
            k = 2 * rank + linalg._OVERSAMPLE
            dense = median_ms(lambda: linalg._dense_form(a), args.repeat)
            ranged = f"{median_ms(lambda: linalg._range_form(a, k), args.repeat):9.3f}" if k <= d else f"{'-':>9}"
            hint = "-" if rho._rank_hint is None else rho._rank_hint
            path = rho.imag_canonical.certificate.path
            print(f"{d:>5} {rank:>5} {hint:>5} {k:>5} {dense:9.3f} {ranged}  {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
