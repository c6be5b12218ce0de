import numpy as np

from moeprune.optim import Adam

import oracles


def test_adam_in_place_equals_allocating_oracle():
    # parameters of several sizes share the scratch buffers; one step has an
    # all-zero gradient
    rng = np.random.default_rng(0)
    shapes = {"w_gate": (128, 512), "w_down": (512, 128), "router": (128, 16), "one": (1, 1)}
    params = {n: rng.normal(size=s) for n, s in shapes.items()}
    fast = Adam({n: p.copy() for n, p in params.items()})
    slow = oracles.Adam({n: p.copy() for n, p in params.items()})
    for step, lr in enumerate((3e-3, 1e-3, 2e-4, 5e-5)):
        grads = {n: (np.zeros(s) if step == 1 else rng.normal(size=s) * 10.0 ** (step - 2))
                 for n, s in shapes.items()}
        fast.step(grads, lr)
        slow.step(grads, lr)
        for n in shapes:
            assert np.array_equal(fast.params[n], slow.params[n]), (step, n)
            assert np.array_equal(fast.m[n], slow.m[n]) and np.array_equal(fast.v[n], slow.v[n])
    assert not any(np.array_equal(fast.params[n], params[n]) for n in shapes)
