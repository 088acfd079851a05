"""Distilling |+i> with a real channel, and its Stinespring dilation.

A real CPTP map (all Kraus operators real) can take any state rho to a
qubit state whose fidelity with |+i> is exactly

    1/2 + ||rho - rho*||_1 / 4,

and no real channel can do better.  The channel that attains the bound is
a fixed 0/1-valued Kraus family composed with a real orthogonal alignment
computed from the canonical block form of Im(rho).
"""

import numpy as np

from imaginarity import (
    apply_dilation,
    build_kraus,
    classify,
    convert_to_plus_hat,
    dilate,
    from_pure,
    gen_max_imaginary,
    gen_random_density,
    plus_i,
    state_of,
    BlochVector,
)

# Fully imaginary input: fidelity 1, the output IS |+i><+i|.
result = convert_to_plus_hat(gen_max_imaginary(6, 3, seed=11))
print("max-imaginary input  -> fidelity", f"{result.fidelity:.12f}")

# Real input: the channel can never beat a coin flip.
result = convert_to_plus_hat(state_of(BlochVector(0.6, 0.0, 0.3)))
print("real input           -> fidelity", f"{result.fidelity:.12f}")

# Partially imaginary input: exactly on the closed-form optimum.
rho = state_of(BlochVector(0.0, 0.5, 0.0))
result = convert_to_plus_hat(rho)
print("Bloch (0, 0.5, 0)    -> fidelity", f"{result.fidelity:.12f}",
      " optimum:", classify(rho).imag_fidelity)

# The Kraus family itself is tiny: d/2 (or (d+1)/2) operators of 0s and 1s.
kraus = build_kraus(4)
for i, k in enumerate(kraus.operators):
    print(f"K_{i} =\n{k}")

# Any of these channels is implementable as: attach a real ancilla, evolve
# by a real orthogonal matrix, trace out the environment.
dilation = dilate(kraus)
n = dilation.unitary.shape[0]
print("dilation size", dilation.unitary.shape, " env", dilation.env_dim,
      " pad", dilation.pad_dim,
      " orthogonality residual",
      np.max(np.abs(dilation.unitary.T @ dilation.unitary - np.eye(n))))

# Both channel paths agree to machine precision.
rho = gen_random_density(4, seed=5)
from imaginarity import align_for_state, apply_kraus

align = align_for_state(rho)
gap = np.max(np.abs(apply_kraus(kraus, align, rho).matrix
                    - apply_dilation(dilation, align, rho).matrix))
print("Kraus path vs dilation path: max entry gap", gap)

# No single alignment serves every state: the channel tuned for |+i>
# leaves |-i><-i| untouched (fidelity 0 with the target).
from imaginarity import minus_i

tuned = convert_to_plus_hat(from_pure(plus_i()))
stuck = apply_kraus(tuned.kraus, tuned.align, from_pure(minus_i()))
target = from_pure(plus_i()).matrix
print("fixed channel on |-i>: fidelity", abs(np.trace(target @ stuck.matrix).real))
