import numpy as np
import pytest

import moeprune.distill as kd
import moeprune.training as training
from moeprune import autograd as ag
from moeprune.distill import KDConfig, distill
from moeprune.model import MoEModel
from moeprune.optim import Adam
from moeprune.training import TrainConfig, train_model

import oracles
from conftest import TINY, synth_corpus
from test_distill import pruned_pair


def test_adam_in_place_equals_allocating_oracle():
    # parameters of several sizes share the scratch buffers; one step has an
    # all-zero gradient. No node reads a leaf, so each weight steps by the
    # gradient its leaf holds after backward.
    rng = np.random.default_rng(0)
    shapes = {"w_gate": (128, 512), "w_down": (512, 128), "router": (128, 16), "one": (1, 1)}
    params = {n: rng.normal(size=s) for n, s in shapes.items()}
    fast = Adam({n: p.copy() for n, p in params.items()})
    slow = oracles.Adam({n: p.copy() for n, p in params.items()})
    for step, lr in enumerate((3e-3, 1e-3, 2e-4, 5e-5)):
        grads = {n: (np.zeros(s) if step == 1 else rng.normal(size=s) * 10.0 ** (step - 2))
                 for n, s in shapes.items()}
        tape = ag.Tape()
        leaves = {n: tape.var(p) for n, p in fast.params.items()}
        for n, leaf in leaves.items():
            leaf.accumulate(grads[n].copy())
        fast.step(tape.const(np.zeros((1, 1))), leaves, lr)
        slow.step(grads, lr)
        for n in shapes:
            assert np.array_equal(fast.params[n], slow.params[n]), (step, n)
            assert np.array_equal(fast.m[n], slow.m[n]) and np.array_equal(fast.v[n], slow.v[n])
    assert not any(np.array_equal(fast.params[n], params[n]) for n in shapes)


def both_orders(monkeypatch, module, run):
    """run() with module's Adam updating each weight inside backward, then
    with the two-phase oracle (the full backward, then every weight by its
    leaf's gradient): [(the run's optimizer, its result)] for each."""
    out = []
    for cls in (Adam, oracles.TwoPhaseAdam):
        made = []

        class Recorded(cls):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(module, "Adam", Recorded)
        result = run()
        out.append((made[0], result))
    return out


def assert_same_state(runs):
    (new, _), (old, _) = runs
    assert new.t == old.t > 0 and list(new.params) == list(old.params)
    for n in new.params:
        for a, b in ((new.params, old.params), (new.m, old.m), (new.v, old.v)):
            assert a[n].tobytes() == b[n].tobytes(), n


def test_train_updates_equal_two_phase_step(monkeypatch):
    # at this rate some expert falls idle after steps in which it ran: its
    # weights, which no node reads, still take Adam's zero-gradient update
    active, idle_after_active = set(), []
    forward = training.forward_pass

    def recording(*args, **kwargs):
        tr = forward(*args, **kwargs)
        for i, lt in enumerate(tr.layers):
            for e, rows in lt.expert_tokens.items():
                if rows.size:
                    active.add((i, e))
                elif (i, e) in active:
                    idle_after_active.append((i, e))
        return tr

    monkeypatch.setattr(training, "forward_pass", recording)
    runs = both_orders(monkeypatch, training, lambda: train_model(
        MoEModel.init(TINY), synth_corpus(2, 1 << 12),
        TrainConfig(steps=6, batch_size=2, seed=0, learning_rate=1e-2))[1])
    assert idle_after_active
    assert runs[0][1] == runs[1][1]
    assert_same_state(runs)


@pytest.mark.parametrize("router_frozen", [True, False])
def test_masked_distill_updates_equal_two_phase_step(monkeypatch, router_frozen):
    corpus = synth_corpus(seed=9, size=1 << 15)
    teacher, student, masks = pruned_pair(corpus)
    cfg = KDConfig(epochs=2, samples=8, batch_size=3, learning_rate=1e-2, seed=5,
                   router_frozen=router_frozen)
    runs = both_orders(monkeypatch, kd,
                       lambda: distill(teacher, student.copy(), masks, corpus, cfg))
    (new, res), (_, want) = runs
    assert res.log == want.log and len(res.log) == 6
    assert any(n.endswith(".router") for n in new.params) == (not router_frozen)
    assert_same_state(runs)
    for n, p in res.student.params.items():
        assert p.tobytes() == want.student.params[n].tobytes(), n
    if router_frozen:
        assert all(np.array_equal(res.student.params[n], student.params[n])
                   for n in student.params if n.endswith(".router"))
