"""Exact check of the optimal real channel on states with rational entries.

Each state is rho = O^T X O.  X is a direct sum of 2x2 blocks
[[p_m, c_m - i a_m], [c_m + i a_m, q_m]] with rational entries, plus one
1x1 block for odd d, and O is rational and orthogonal: a product of
Pythagorean Givens rotations ((3/5, 4/5) and (5/13, 12/13)) and a signed
permutation.  Everything the channel path reports is then rational, and is
computed here in `fractions.Fraction` with no rounding:

* the block values of Im(rho) are the |a_m|, sorted;
* tr[rho rho*] = sum_ij rho_ij^2, from the exact entries of rho;
* ||rho - rho*||_1 = 4 sum_m |a_m|, and F_I = 1/2 + sum_m |a_m|;
* when each block is r_m I + a_m (2x2 rotation generator), with equal r
  for equal |a_m| and one r across the kernel, the aligned state O' rho
  O'^T is the same for every valid alignment O': the blocks
  [[r_m, i |a_m|], [-i |a_m|, r_m]] in descending order.  The Kraus output
  sum_m K_m (O' rho O'^T) K_m^T is then exact too.

The float pipeline starts from rho rounded entrywise to doubles, and must
agree with the exact values within C * d * eps.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from imaginarity import linalg, measures, realops, states

EPS = np.finfo(float).eps
#: Float results must lie within C * d * eps of the exact values.  The worst
#: error seen over these cases was 0.21 * d * eps.
C = 4

PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rational_orthogonal(d, seed):
    """Givens rotations by Pythagorean angles on random planes, then a signed permutation."""
    rnd = random.Random(seed)
    o = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(d):
        i, j = rnd.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            break
        c, s = rnd.choice(PYTHAGOREAN)
        s = s if rnd.random() < 0.5 else -s
        o[i], o[j] = (
            [c * x - s * y for x, y in zip(o[i], o[j])],
            [s * x + c * y for x, y in zip(o[i], o[j])],
        )
    order = list(range(d))
    rnd.shuffle(order)
    signs = [rnd.choice((1, -1)) for _ in range(d)]
    return [[sign * x for x in o[k]] for k, sign in zip(order, signs)]


class ExactState:
    """rho = O^T X O in exact arithmetic, X given by its 2x2 blocks."""

    def __init__(self, blocks, odd=None, seed=0):
        # blocks: (p, q, c, a) per 2x2 block; odd: the 1x1 block for odd d
        d = 2 * len(blocks) + (odd is not None)
        re = [[Fraction(0)] * d for _ in range(d)]
        im = [[Fraction(0)] * d for _ in range(d)]
        for m, (p, q, c, a) in enumerate(blocks):
            i, j = 2 * m, 2 * m + 1
            re[i][i], re[j][j], re[i][j], re[j][i] = p, q, c, c
            im[i][j], im[j][i] = -a, a
            assert p >= 0 and q >= 0 and p * q >= c * c + a * a  # PSD block
        if odd is not None:
            re[d - 1][d - 1] = odd
        trace = sum(re[k][k] for k in range(d))
        assert trace == 1
        o = rational_orthogonal(d, seed)
        assert matmul(transpose(o), o) == [[int(i == j) for j in range(d)] for i in range(d)]
        self.d, self.blocks, self.odd = d, blocks, odd
        self.re = matmul(matmul(transpose(o), re), o)
        self.im = matmul(matmul(transpose(o), im), o)

    def floats(self) -> states.DensityMatrix:
        re = np.array([[float(x) for x in row] for row in self.re])
        im = np.array([[float(x) for x in row] for row in self.im])
        return states.DensityMatrix(re + 1j * im)

    def block_values(self):
        return sorted((abs(a) for _, _, _, a in self.blocks), reverse=True)

    def overlap(self):
        # tr[rho rho*] = sum_ij rho_ij^2; the imaginary parts cancel in pairs
        return sum(x * x - y * y for rr, ri in zip(self.re, self.im) for x, y in zip(rr, ri))

    def trace_norm(self):
        return 4 * sum(self.block_values())

    def fidelity(self):
        return Fraction(1, 2) + sum(self.block_values())

    def aligned(self):
        """O' rho O'^T for an optimal alignment O', as (re, im); see the module docstring."""
        d = self.d
        re = [[Fraction(0)] * d for _ in range(d)]
        im = [[Fraction(0)] * d for _ in range(d)]
        order = sorted(self.blocks, key=lambda b: -abs(b[3]))
        for m, (p, q, c, a) in enumerate(order):
            assert p == q and c == 0
            re[2 * m][2 * m] = re[2 * m + 1][2 * m + 1] = p
            im[2 * m][2 * m + 1], im[2 * m + 1][2 * m] = abs(a), -abs(a)
        if self.odd is not None:
            re[d - 1][d - 1] = self.odd
        return re, im

    def kraus_output(self):
        """sum_m K_m X' K_m^T with K_m = |1><2m| + |0><2m+1| (and |0><d-1| for odd d)."""
        re, im = self.aligned()
        out_re = [[Fraction(0)] * 2 for _ in range(2)]
        out_im = [[Fraction(0)] * 2 for _ in range(2)]
        target = {k: 1 - k % 2 for k in range(2 * (self.d // 2))}
        if self.d % 2:
            target[self.d - 1] = 0
        for i, ti in target.items():
            for j, tj in target.items():
                if i // 2 == j // 2:  # one Kraus operator holds both columns
                    out_re[ti][tj] += re[i][j]
                    out_im[ti][tj] += im[i][j]
        return out_re, out_im


def mixed_with_identity(weights, d, s):
    """(1 - s) sum_m w_m |+i><+i|_m + s I / d, as blocks (the zero blocks fill up d)."""
    blocks = [
        ((1 - s) * w / 2 + s / d, (1 - s) * w / 2 + s / d, Fraction(0), (1 - s) * w / 2)
        for w in weights
    ]
    blocks += [(s / d, s / d, Fraction(0), Fraction(0))] * (d // 2 - len(weights))
    return blocks, (s / d if d % 2 else None)


F = Fraction
TOL = Fraction(linalg.VERDICT_TOL)  # the float's exact value


def near_threshold(d, side):
    """A state whose exact tr[rho rho*] sits 1 % above or below VERDICT_TOL."""
    # tr[rho rho*] = s (2 - s) / d for this mixture; s = d TOL / 2 lands just below
    s = F(d) * TOL / 2 * (1 + side * F(1, 100))
    blocks, odd = mixed_with_identity([F(3, 4), F(1, 4)], d, s)
    state = ExactState(blocks, odd, seed=d)
    overlap = state.overlap()
    assert (overlap > TOL) == (side > 0)
    assert abs(overlap / TOL - 1) > F(1, 200)  # far from the boundary next to rounding
    return state


CASES = {
    # maximally imaginary: each block rank one, tr[rho rho*] = 0
    "universal_d6": ExactState(*mixed_with_identity([F(1, 2), F(1, 3), F(1, 6)], 6, F(0)), seed=1),
    "universal_d9_rank2": ExactState(*mixed_with_identity([F(5, 8), F(3, 8)], 9, F(0)), seed=2),
    "zero_d2": ExactState([(F(1, 2), F(1, 2), F(0), F(1, 5))], seed=3),
    "zero_d7": ExactState(
        [
            (F(3, 10), F(3, 10), F(0), F(1, 10)),
            (F(1, 8), F(1, 8), F(0), -F(1, 16)),
            (F(1, 20), F(1, 20), F(0), F(0)),
        ],
        odd=F(1, 20),
        seed=4,
    ),
    # a repeated value: one cluster through the complex eigensolve
    "repeated_d10": ExactState(
        [
            (F(3, 20), F(3, 20), F(0), F(1, 10)),
            (F(3, 20), F(3, 20), F(0), -F(1, 10)),
            (F(1, 10), F(1, 10), F(0), F(1, 20)),
            (F(1, 20), F(1, 20), F(0), F(0)),
            (F(1, 20), F(1, 20), F(0), F(0)),
        ],
        seed=5,
    ),
    "mixed_d16": ExactState(
        *mixed_with_identity([F(k, 36) for k in range(1, 9)], 16, F(1, 3)), seed=6
    ),
    "mixed_d33": ExactState(
        *mixed_with_identity([F(1, 2), F(1, 4), F(1, 4)], 33, F(1, 7)), seed=7
    ),
    "near_below_d8": near_threshold(8, -1),
    "near_above_d8": near_threshold(8, +1),
    "near_below_d17": near_threshold(17, -1),
    "near_above_d17": near_threshold(17, +1),
}

#: Blocks with unequal diagonals and real couplings: the alignment inside
#: each plane is not unique, so only the invariants are compared.
GENERAL_D11 = [
    (F(1, 10), F(1, 12), F(1, 40), F(1, 15)),
    (F(1, 8), F(1, 10), F(0), F(1, 20)),
    (F(1, 12), F(1, 12), -F(1, 30), F(1, 20)),
    (F(1, 20), F(1, 10), F(1, 50), F(0)),
    (F(1, 30), F(1, 15), F(1, 60), F(1, 100)),
]
GENERAL = {
    "general_d4": ExactState(
        [(F(1, 3), F(1, 6), F(1, 10), F(1, 8)), (F(1, 4), F(1, 4), -F(1, 9), -F(1, 7))], seed=8
    ),
    "general_d11": ExactState(
        GENERAL_D11, odd=1 - sum(p + q for p, q, _, _ in GENERAL_D11), seed=9
    ),
}


def within(value, exact, d, scale=1):
    """|value - exact| <= C d eps * scale, exactly."""
    return abs(Fraction(float(value)) - exact) <= C * d * Fraction(EPS) * scale


@pytest.mark.parametrize("name", list(CASES) + list(GENERAL))
def test_invariants_match_the_exact_values(name):
    state = {**CASES, **GENERAL}[name]
    rho, d = state.floats(), state.d
    values = state.block_values()
    got = rho.imag_canonical.block_values
    assert len(got) == d // 2
    assert all(within(x, v, d) for x, v in zip(got, values))
    report = measures.classify(rho)
    assert within(report.overlap_conj, state.overlap(), d)
    assert within(report.imag_trace_norm, state.trace_norm(), d, scale=4)
    assert within(linalg.trace_norm(rho.matrix - rho.matrix.conj()), state.trace_norm(), d, scale=4)
    assert within(report.imag_fidelity, state.fidelity(), d)
    assert within(realops.convert_to_plus_hat(rho).fidelity, state.fidelity(), d)
    exact_verdict = measures.UNIVERSAL if state.overlap() <= TOL else measures.ZERO
    assert report.verdict == exact_verdict


@pytest.mark.parametrize("name", list(CASES))
def test_aligned_state_and_kraus_output_are_exact(name):
    state = CASES[name]
    rho, d = state.floats(), state.d
    conversion = realops.convert_to_plus_hat(rho)
    o = conversion.align
    aligned = o @ rho.matrix @ o.T
    re, im = state.aligned()
    for i in range(d):
        for j in range(d):
            assert within(aligned[i, j].real, re[i][j], d), (i, j)
            assert within(aligned[i, j].imag, im[i][j], d), (i, j)
    out_re, out_im = state.kraus_output()
    out = conversion.output.matrix
    for i in range(2):
        for j in range(2):
            assert within(out[i, j].real, out_re[i][j], d)
            assert within(out[i, j].imag, out_im[i][j], d)
    assert Fraction(1, 2) + out_im[1][0] == state.fidelity()


def test_near_threshold_states_straddle_the_verdict_tolerance():
    verdicts = {name: measures.classify(CASES[name].floats()).verdict for name in CASES}
    assert verdicts["near_below_d8"] == verdicts["near_below_d17"] == measures.UNIVERSAL
    assert verdicts["near_above_d8"] == verdicts["near_above_d17"] == measures.ZERO
    assert verdicts["universal_d6"] == measures.UNIVERSAL
    assert verdicts["zero_d7"] == measures.ZERO
