"""Exact check of the catalytic S, CS and CZ = CS^2 gadgets.

Every quantity in the simulation equation of these gadgets is a Gaussian
integer after scaling: U has entries in {0, +-1}, the targets S, CS and CZ
have entries in {0, +-1, i}, 2|+i><+i| has entries in {1, +-i}, and twice
each spanning probe |psi><psi| has entries in {0, 1, 2, +-i}.  So both sides,

    U (2|+i><+i| (x) 2|psi><psi|) U^T  and  2|+i><+i| (x) V 2|psi><psi| V^dag,

are computed here in stdlib integers, with no floats and no tolerance, and
must be equal entry for entry on all n^2 probes.  A Gaussian integer is a
pair (re, im) of ints; a matrix is a tuple of rows.
"""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from imaginarity import gatesim


def exact(m):
    """The entries of a numpy matrix as Gaussian integers, checked integral."""
    rows = []
    for row in np.asarray(m):
        entries = []
        for z in row:
            re, im = float(z.real), float(z.imag)
            assert re.is_integer() and im.is_integer(), f"{z} is not a Gaussian integer"
            entries.append((int(re), int(im)))
        rows.append(tuple(entries))
    return tuple(rows)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def matmul(a, b):
    zero = (0, 0)
    return tuple(
        tuple(reduce(add, map(mul, row, col), zero) for col in zip(*b)) for row in a
    )


def dagger(a):
    return tuple(tuple((re, -im) for re, im in col) for col in zip(*a))


def kron(a, b):
    return tuple(tuple(mul(x, y) for x in row_a for y in row_b) for row_a in a for row_b in b)


def spanning_probes(n):
    """Twice the verifier's n^2 probes |psi><psi|, in its order.

    |j> gives 2|j><j|; each pair j < k gives v v^dag for v = |j> + |k> and
    v = |j> + i|k>, twice the probes (|j>+|k>)/sqrt2 and (|j>+i|k>)/sqrt2.
    """

    def outer(v):
        column = tuple((x,) for x in v)
        return matmul(column, dagger(column))

    def e(j, amplitude=(1, 0)):
        return [amplitude if i == j else (0, 0) for i in range(n)]

    probes = [outer(e(j)) for j in range(n)]
    probes = [tuple(tuple(add(x, x) for x in row) for row in p) for p in probes]
    for j in range(n):
        for k in range(j + 1, n):
            for phase in ((1, 0), (0, 1)):
                probes.append(outer(list(map(add, e(j), e(k, phase)))))
    return probes


def rank(rows):
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


#: 2|+i><+i|: |+i> = (|0> + i|1>)/sqrt2.
PLUS_I_TWICE = ((1, 0), (0, -1)), ((0, 1), (1, 0))


def equation_holds(u, v):
    """Both sides equal on every probe, for exact U and V."""
    for probe in spanning_probes(len(v)):
        lhs = matmul(matmul(u, kron(PLUS_I_TWICE, probe)), dagger(u))
        rhs = kron(PLUS_I_TWICE, matmul(matmul(v, probe), dagger(v)))
        if lhs != rhs:
            return False
    return True


def test_probes_are_the_verifiers_count():
    for n in (2, 4):
        assert len(spanning_probes(n)) == n * n


def test_probes_span_the_hermitian_matrices():
    # n^2 Hermitian probes, linearly independent over the reals, span all
    # n x n Hermitian matrices.  Each probe is flattened to its 2 n^2 parts.
    for n in (2, 4):
        flat = [[part for row in p for entry in row for part in entry] for p in spanning_probes(n)]
        assert rank(flat) == n * n


@pytest.mark.parametrize(
    "unitary, target",
    [
        (gatesim.s_gadget().unitary, gatesim.S),
        (gatesim.cs_gadget().unitary, gatesim.CS),
    ],
    ids=["S", "CS"],
)
def test_gadget_is_exact(unitary, target):
    assert equation_holds(exact(unitary), exact(target))


def test_cs_squared_is_exactly_cz():
    u = exact(gatesim.cs_gadget().unitary)
    assert equation_holds(matmul(u, u), exact(gatesim.CZ))


def test_oracle_rejects_the_wrong_phase():
    # S^dag and CS^dag would need the |-i> catalyst: with |+i> both fail.
    assert not equation_holds(exact(gatesim.s_gadget().unitary), exact(gatesim.SDG))
    assert not equation_holds(exact(gatesim.cs_gadget().unitary), exact(gatesim.CS.conj().T))
