"""Recurrent actor-critic: forward passes, losses, gradients, updates, training."""

import base64
import copy
import hashlib
import json
import math
import pickle
import re
import warnings
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ramals.learner as learner
import ramals.mdp as mdp
from ramals import (
    GeneratorConfig,
    LearnerError,
    SiteConfig,
    TrainConfig,
    decision_table,
    generate_synthetic,
    train,
)
from ramals.learner import (
    PARAM_KEYS,
    Coordinator,
    EpisodeBuffers,
    SharedModel,
    backward,
    bootstrap_targets,
    clipped_delta,
    forward_episode,
    grad_norm,
    init_params,
    policy_value_forward,
)
from ramals.scheduler import ScheduleEngine, execute, outcomes_jsonl

import oracles
from helpers import T0, batch_of, make_session, site_for
from oracles import (
    EpisodeBatch,
    FlatAdam,
    KeyedAdam,
    PaddedForward,
    VehicleClass,
    _allocating_cell_rows,
    flatten,
    forward_pass,
    keyed_clipped_delta,
    keyed_grad_norm,
    padded_backward,
    padded_forward_episode,
    policy_loss,
    scalar_backward,
    scalar_forward,
    total_loss,
    value_loss,
)


# SHA-256 of the outcomes JSONL plus report CSV that tests/data/model-v2-hidden4.json
# replayed to, on the seed-3 batch of test_stored_v3_file_resaves_and_replays,
# while the v2 format was still read; its v3 and v4 conversions replay to it too,
# and so does its v5 conversion, whose ports start from zero carries
V2_FIXTURE_REPLAY_SHA256 = "de79751f531807b2795c22abdb2de016cec367eb51b6b0cc15ced8a65d45b164"


def decode(text: str) -> np.ndarray:
    """A model file's vector text as a writable float array."""
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def encode(values: np.ndarray) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def random_params(hidden=8, seed=0, scale=None):
    params = init_params(hidden, np.random.default_rng(seed))
    if scale is not None:
        for key in params:
            params[key] = np.random.default_rng(seed + 1).uniform(
                -scale, scale, params[key].shape)
    return params


def padded(sequences):
    """Stack (T_p, ...) arrays into one zero-padded (P, max T_p, ...) array and
    return it with the lengths."""
    lengths = np.array([len(seq) for seq in sequences])
    out = np.zeros((len(sequences), lengths.max()) + sequences[0].shape[1:])
    for p, seq in enumerate(sequences):
        out[p, :len(seq)] = seq
    return out, lengths


def targets(rewards, values, lengths, gamma=0.9):
    """The package's bootstrap targets and advantages of (P, T) rewards and
    values, written into buffers of the ports' lengths."""
    buffers = EpisodeBuffers(np.zeros(values.shape + (6,)), lengths, 1)
    buffers.values[...] = values
    bootstrap_targets(buffers, rewards, gamma)
    return buffers.q_targets, buffers.advantages


def sampled_episode(params, states, lengths, rng, beta):
    """Random actions and rewards over the package's pass, with its
    bootstrap targets: the pass in its buffers and the episode's record."""
    buffers = forward_pass(params, states, lengths)
    buffers.actions[...] = rng.integers(0, 2, states.shape[:2])
    bootstrap_targets(buffers, rng.uniform(0.0, 2.0, states.shape[:2]), 0.9)
    return buffers, EpisodeBatch.of(buffers, beta)


def random_batch(hidden=8, n=3, seed=0, beta=0.05):
    """One port of ``n`` random steps through the batched pass."""
    rng = np.random.default_rng(seed)
    params = random_params(hidden, seed)
    states, lengths = padded([rng.uniform(0.0, 1.0, (n, 6))])
    return (params, *sampled_episode(params, states, lengths, rng, beta))


def entropies(probs):
    """The package's entropy of each row of (k, 2) ``probs``: the entropy
    loss of k one-step ports whose pass holds those probabilities."""
    params = random_params(2)
    buffers = forward_pass(params, np.zeros((len(probs), 1, 6)))
    buffers.probs[:, 0] = probs
    backward(params, buffers, 0.05)
    return np.array([entropy for _, _, entropy in buffers.losses])


def hidden_sequence(params, states):
    """Hidden state after each step of one port's (T, 6) sequence, and the
    final carry."""
    buffers = forward_pass(params, states[None])
    return buffers.hiddens[1:, 0], (buffers.hiddens[-1, 0], buffers.cells[-1, 0])


def episode_loss_value(params, batch):
    """Summed total loss of the batch's ports as a plain function of the
    parameters (targets held fixed); what the finite differences perturb."""
    buffers = forward_pass(params, batch.states, batch.lengths)
    return sum(total_loss(*losses, batch.beta)
               for losses in oracles.episode_losses(batch, buffers))


def finite_difference_grads(params, batch, h=1e-5):
    """Central differences over each entry of the flat parameter vector,
    perturbed in place under the coordinator's views."""
    coordinator = Coordinator(params)
    flat = coordinator.flat
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = episode_loss_value(coordinator.params, batch)
        flat[i] = original - h
        down = episode_loss_value(coordinator.params, batch)
        flat[i] = original
        grad[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestRnnForward:
    def test_zero_weights_zero_carry_zero_hidden(self):
        params = {k: np.zeros_like(v) for k, v in init_params(4, np.random.default_rng(0)).items()}
        hiddens, (h, c) = hidden_sequence(params, np.ones((3, 6)) * 0.5)
        assert np.allclose(hiddens, 0.0)
        assert np.allclose(h, 0.0) and np.allclose(c, 0.0)

    def test_deterministic(self):
        params = random_params(6, 1)
        states = np.random.default_rng(2).uniform(0, 1, (5, 6))
        a, carry_a = hidden_sequence(params, states)
        b, carry_b = hidden_sequence(params, states)
        assert np.array_equal(a, b)
        assert np.array_equal(carry_a[0], carry_b[0])

    def test_bounded_outputs_random_sampling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            hidden = int(rng.integers(2, 10))
            params = init_params(hidden, rng)
            for key in params:
                params[key] = rng.uniform(-1.0, 1.0, params[key].shape)
            states = rng.uniform(0.0, 1.0, (4, 6))
            hiddens, _ = hidden_sequence(params, states)
            assert np.all(np.isfinite(hiddens))
            assert np.all(np.abs(hiddens) <= 1.0)  # gated tanh output

    def test_shape_mismatch(self):
        with pytest.raises(LearnerError):
            forward_pass(random_params(4, 0), np.ones((1, 2, 5)))


def zero_carry(params, k=1):
    hidden = learner.hidden_size(params)
    return np.zeros((k, hidden)), np.zeros((k, hidden))


class TestPolicyValueForward:
    def test_zero_heads_uniform_policy_zero_value(self):
        params = random_params(6, 4)
        params["wp"][:] = 0.0
        params["bp"][:] = 0.0
        params["wv"][:] = 0.0
        params["bv"][:] = 0.0
        states = np.random.default_rng(4).uniform(0, 1, (3, 6))
        p_schedule, value, _ = policy_value_forward(params, states, zero_carry(params, 3))
        assert p_schedule.shape == value.shape == (3,)
        assert p_schedule == pytest.approx(np.full(3, 0.5))
        assert np.array_equal(value, np.zeros(3))

    def test_probabilities_sum_to_one_many_parameterizations(self):
        rng = np.random.default_rng(5)
        for k in range(1, 101):
            params = init_params(4, rng)
            states = rng.uniform(0, 1, (k % 7 + 1, 6))
            carry = tuple(rng.uniform(-1, 1, (len(states), 4)) for _ in range(2))
            p_schedule, _, _ = policy_value_forward(params, states, carry)
            assert np.all((0.0 <= p_schedule) & (p_schedule <= 1.0))
            for j, state in enumerate(states):
                z_row = params["wx"] @ state + params["b"]
                h = _allocating_cell_rows(params["wh"], z_row, carry[0][j], carry[1][j])[1]
                logits = params["wp"] @ h + params["bp"]
                assert p_schedule[j] == pytest.approx(
                    1.0 / (1.0 + math.exp(logits[1] - logits[0])), rel=1e-12)

    def test_value_head_separate_from_policy_head(self):
        params = random_params(6, 6)
        states = np.random.default_rng(6).uniform(0, 1, (4, 6))
        _, value_before, _ = policy_value_forward(params, states, zero_carry(params, 4))
        params["wp"] += 0.5
        _, value_after, _ = policy_value_forward(params, states, zero_carry(params, 4))
        assert np.array_equal(value_before, value_after)

    def test_steps_match_episode_forward(self):
        """Execution steps the same cell that training runs over whole
        episodes: each stack holds the ports that still have a step."""
        params = random_params(6, 7, scale=0.8)
        rng = np.random.default_rng(8)
        sequences = [rng.uniform(0, 1, (n, 6)) for n in (5, 2, 4)]
        states, lengths = padded(sequences)
        buffers = forward_pass(params, states)
        h, c = zero_carry(params, len(lengths))
        for t in range(lengths.max()):
            due = np.flatnonzero(lengths > t)
            rows = states[due, t]
            p_schedule, value, (h[due], c[due]) = policy_value_forward(
                params, rows, (h[due], c[due]))
            assert np.array_equal(rows, states[due, t])  # the state rows are only read
            assert p_schedule == pytest.approx(buffers.probs[due, t, 0], rel=1e-12)
            assert value == pytest.approx(buffers.values[due, t], rel=1e-12)
            assert np.allclose(h[due], buffers.hiddens[t + 1, due], rtol=1e-12, atol=0)
        last = (lengths, np.arange(len(lengths)))  # time-major
        assert np.allclose(h, buffers.hiddens[last], rtol=1e-12, atol=0)
        assert np.allclose(c, buffers.cells[last], rtol=1e-12, atol=0)

    def test_non_finite_output_rejected(self):
        params = random_params(4, 9)
        params["bv"][0] = np.inf
        with pytest.raises(LearnerError, match="non-finite"):
            policy_value_forward(params, np.full((2, 6), 0.5), zero_carry(params, 2))


def test_tanh_is_odd_to_the_bit():
    """The cell step keeps ``tanh(-g)`` as ``-tanh g``: numpy's tanh must be
    odd bit for bit, from 1e-300 to 1e300 in magnitude and across the
    function's bend, on contiguous and strided operands alike."""
    rng = np.random.default_rng(12)
    x = np.concatenate((10.0 ** rng.uniform(-300.0, 300.0, 400_000),
                        rng.uniform(0.0, 25.0, 200_000)))
    x *= rng.choice([-1.0, 1.0], x.size)
    negated = -x
    blocks = (slice(None), slice(None, None, 3))  # as given, and strided
    for rows in blocks:
        assert np.tanh(negated[rows]).tobytes() == np.negative(np.tanh(x[rows])).tobytes()
    # the g block of a (k, 4H) row stack, read strided as the step reads it
    z, negated_z = x.reshape(-1, 4 * 25), negated.reshape(-1, 4 * 25)
    pair = np.empty((len(z), 25))
    np.tanh(negated_z[:, 50:75], out=pair)
    assert pair.tobytes() == np.negative(np.tanh(z[:, 50:75])).tobytes()


class TestSaturatedGates:
    """An i, f or o pre-activation below about -709 overflows the logistic's
    exp: the gate is exactly 0, the cell step warns of nothing, and its
    outputs are the oracle's, run under its own errstate, bit for bit."""

    HIDDEN = 4

    def params(self):
        """Unit k of gate block k, i, f, g and o, far below -709; the g
        slot's logistic is the step's scratch, and overflows too."""
        params = random_params(self.HIDDEN, 40)
        for k in range(4):
            params["b"][k * self.HIDDEN + k] = -1000.0
        return params

    def test_forward_episode(self):
        params = self.params()
        states = np.random.default_rng(41).uniform(0, 1, (3, 5, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = PaddedForward.of(forward_pass(params, states))
        with np.errstate(over="ignore"):
            oracle = padded_forward_episode(params, states)
        for name in FORWARD_FIELDS:
            assert np.array_equal(getattr(forward, name), getattr(oracle, name)), name
        for k in (0, 1, 3):
            assert np.all(forward.gates[..., k * self.HIDDEN + k] == 0.0)

    def test_policy_value_forward(self):
        params = self.params()
        rng = np.random.default_rng(42)
        states = rng.uniform(0, 1, (3, 6))
        carry = tuple(rng.uniform(-1, 1, (3, self.HIDDEN)) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p_schedule, value, (h, c) = policy_value_forward(params, states, carry)
        z = states @ params["wx"].T + params["b"]  # the step's input projection
        with np.errstate(over="ignore"):
            oracle_c, oracle_h = _allocating_cell_rows(params["wh"], z, *carry)
        for k in (0, 1, 3):
            assert np.all(z[:, k * self.HIDDEN + k] == 0.0)
        assert np.array_equal(c, oracle_c) and np.array_equal(h, oracle_h)
        logits = oracle_h @ params["wp"].T + params["bp"]
        assert np.array_equal(p_schedule, oracles._batched_softmax2(logits)[:, 0])
        assert np.array_equal(value, oracle_h @ params["wv"][0] + params["bv"][0])


class TestLosses:
    def test_td_advantage(self):
        # q_t = r_t + gamma * V(s_{t+1}), terminal value 0; advantage q - V
        q, adv = targets(np.array([[1.0, 3.0]]), np.array([[2.0, 3.0]]), np.array([2]))
        assert q[0] == pytest.approx([1.0 + 0.9 * 3.0, 3.0])
        assert adv[0] == pytest.approx([1.7, 0.0])
        _, flipped = targets(np.array([[1.0]]), np.array([[2.0]]), np.array([1]))
        _, mirrored = targets(np.array([[3.0]]), np.array([[2.0]]), np.array([1]))
        assert flipped[0, 0] == -mirrored[0, 0]

    def test_value_loss_perfect_prediction(self):
        assert value_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_value_loss_single_residual(self):
        assert value_loss([3.0], [1.0]) == pytest.approx(2.0)

    def test_value_loss_non_negative(self):
        rng = np.random.default_rng(7)
        q, v = rng.normal(size=20), rng.normal(size=20)
        assert value_loss(q, v) >= 0.0

    def test_policy_loss_zero_advantages(self):
        assert policy_loss([0.0, 0.0], [0.5, 0.5]) == 0.0

    def test_policy_loss_unit_advantage(self):
        assert policy_loss([1.0], [math.exp(-1.0)]) == pytest.approx(1.0)

    def test_policy_loss_sign_flips_with_advantage(self):
        assert policy_loss([-1.0], [math.exp(-1.0)]) == pytest.approx(-1.0)

    def test_entropy_values(self):
        values = entropies(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert values[0] == pytest.approx(math.log(2.0))
        assert values[1] == pytest.approx(0.0, abs=1e-9)

    def test_entropy_maximal_at_uniform(self):
        grid = np.linspace(0.01, 0.99, 99)
        values = entropies(np.stack([grid, 1.0 - grid], axis=1))
        assert max(values) == pytest.approx(math.log(2.0), rel=1e-3)
        assert np.argmax(values) == 49

    def test_total_loss_composition(self):
        assert total_loss(1.25, -0.5, 0.6, 0.0) == pytest.approx(0.75)
        uniform_entropy = math.log(2.0)
        assert total_loss(0.0, 0.0, uniform_entropy, 0.05) \
            == pytest.approx(-0.05 * uniform_entropy)

    def test_entropy_term_never_increases_when_beta_zero(self):
        params, buffers, batch = random_batch(seed=11)
        backward(params, buffers, batch.beta)
        [(v, p, ent)] = buffers.losses
        assert total_loss(v, p, ent, batch.beta) <= total_loss(v, p, ent, 0.0) + 1e-12


class TestBackward:
    def test_gradcheck_total_loss(self):
        params, buffers, batch = random_batch(hidden=6, n=4, seed=1)
        [analytic] = backward(params, buffers, batch.beta)
        numeric = finite_difference_grads(params, batch)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradcheck_term_isolation(self):
        params, buffers, batch = random_batch(hidden=5, n=3, seed=2)
        zero_adv = np.zeros_like(batch.advantages)
        for isolated in (
            # value only: zero advantages and beta
            replace(batch, advantages=zero_adv, beta=0.0),
            # policy only: targets equal to values kill the value residual
            replace(batch, q_targets=buffers.values.copy(), beta=0.0),
            # entropy only
            replace(batch, q_targets=buffers.values.copy(), advantages=zero_adv, beta=0.7),
        ):
            [analytic] = backward(params, isolated.write(buffers), isolated.beta)
            assert max_relative_error(analytic,
                                      finite_difference_grads(params, isolated)) < 1e-4

    def test_zero_signal_zero_gradient(self):
        params, buffers, batch = random_batch(hidden=4, n=3, seed=3)
        silent = replace(batch, q_targets=buffers.values.copy(),
                         advantages=np.zeros_like(batch.advantages), beta=0.0)
        [grads] = backward(params, silent.write(buffers), silent.beta)
        assert grad_norm(grads) == pytest.approx(0.0, abs=1e-12)

    def test_record_additivity(self):
        """With per-record mean losses, the gradient decomposes over records:
        silencing complementary halves of the batch and summing the two
        gradients reproduces the full gradient."""
        params = random_params(5, 9)
        rng = np.random.default_rng(10)
        states, lengths = padded([rng.uniform(0, 1, (6, 6))])
        actions = rng.integers(0, 2, (1, 6))
        buffers = forward_pass(params, states, lengths)
        q = buffers.values + rng.normal(size=(1, 6))
        adv = rng.normal(size=(1, 6))

        def gradient(q_part, adv_part):
            EpisodeBatch(states, lengths, actions, q_part, adv_part, 0.0).write(buffers)
            return backward(params, buffers, 0.0)[0].copy()

        def silenced(keep):
            q_part = buffers.values.copy()
            adv_part = np.zeros((1, 6))
            q_part[:, keep] = q[:, keep]
            adv_part[:, keep] = adv[:, keep]
            return gradient(q_part, adv_part)

        full = gradient(q, adv)
        combined = silenced(slice(0, 3)) + silenced(slice(3, 6))
        assert max_relative_error(full, combined) < 1e-9

    def test_grad_norm(self):
        assert grad_norm(np.zeros(3)) == 0.0
        assert grad_norm(np.array([3.0, 4.0])) == 5.0
        grads = np.array([1.0, -2.0, 2.0])
        assert grad_norm(3.0 * grads) == pytest.approx(3.0 * grad_norm(grads))


def random_ports(lengths, hidden=6, seed=20):
    """Ports of the given lengths; a shorter port's padding steps hold
    garbage states, actions and targets."""
    rng = np.random.default_rng(seed)
    params = random_params(hidden, seed, scale=0.8)
    states = rng.uniform(0.0, 1.0, (len(lengths), max(lengths), 6))
    return (params, *sampled_episode(params, states, np.array(lengths), rng, 0.05))


def assert_near(ours, reference, rel):
    """Every entry within ``rel`` times the reference's largest entry."""
    assert np.max(np.abs(ours - reference)) <= rel * np.max(np.abs(reference))


class TestBatchedPass:
    """The padded (P, T) pass against the per-port, per-step reference."""

    TOLERANCE = 1e-12  # relative; the batched products sum in another order

    def test_matches_scalar_oracle_over_unequal_ports(self):
        params, buffers, batch = random_ports([5, 1, 8, 3])
        grads = backward(params, buffers, batch.beta)
        assert grads.shape == (len(batch.lengths), Coordinator(params).flat.size)
        for p, n in enumerate(batch.lengths):
            oracle = scalar_forward(params, batch.states[p, :n])
            assert_near(buffers.probs[p, :n], oracle.probs, self.TOLERANCE)
            assert_near(buffers.values[p, :n], oracle.values, self.TOLERANCE)
            for ours, theirs in zip((buffers.hiddens[n, p], buffers.cells[n, p]),
                                    oracle.final_carry):
                assert_near(ours, theirs, self.TOLERANCE)
            reference = scalar_backward(params, oracle, batch.actions[p, :n],
                                        batch.q_targets[p, :n], batch.advantages[p, :n],
                                        batch.beta)
            ours = learner._views(grads[p], learner.hidden_size(params))
            for key in PARAM_KEYS:  # the row's layout is the flat vector's
                assert_near(ours[key], reference[key], self.TOLERANCE)

    def test_padding_leaves_port_unchanged(self):
        params, buffers, batch = random_ports([4, 1, 6])
        rng = np.random.default_rng(21)

        def extended(a, *extra):
            return np.concatenate([a, rng.uniform(-2.0, 2.0, (a.shape[0], 5) + extra)
                                   .astype(a.dtype)], axis=1)

        long_batch = EpisodeBatch(extended(batch.states, 6), batch.lengths,
                                  extended(batch.actions) % 2, extended(batch.q_targets),
                                  extended(batch.advantages), batch.beta)
        long_buffers = long_batch.buffers(params)
        assert np.array_equal(backward(params, buffers, batch.beta),
                              backward(params, long_buffers, batch.beta))
        last = (batch.lengths, np.arange(len(batch.lengths)))  # time-major
        for name in ("hiddens", "cells"):  # each port's last carry
            assert np.array_equal(getattr(buffers, name)[last],
                                  getattr(long_buffers, name)[last])


def garbage_padded_episode(rng, lengths, hidden, scale=1.0):
    """Parameters and an episode batch for ports of the given lengths, with
    garbage states, actions and targets in every padding step."""
    params = init_params(hidden, rng)
    for key in params:
        params[key] = rng.uniform(-scale, scale, params[key].shape)
    lengths = np.array(lengths)
    shape = (len(lengths), lengths.max())
    states = rng.uniform(0.0, 1.0, shape + (6,))
    batch = EpisodeBatch(states, lengths, rng.integers(0, 2, shape),
                         rng.normal(size=shape), rng.normal(size=shape), rng.uniform(0.0, 0.2))
    return params, batch


FORWARD_FIELDS = ("probs", "values", "hiddens", "cells", "gates")


class TestTimeMajorPass:
    """The time-major pass in reusable buffers against the port-major pass
    that allocated its arrays on every call: the same operations in the same
    order, so the same bits."""

    @given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=5),
           hidden=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_padded_oracle_bit_for_bit(self, lengths, hidden, seed):
        params, batch = garbage_padded_episode(np.random.default_rng(seed), lengths, hidden)
        buffers = batch.buffers(params)
        forward = PaddedForward.of(buffers)
        oracle = padded_forward_episode(params, batch.states)
        for name in FORWARD_FIELDS:
            assert getattr(forward, name).shape == getattr(oracle, name).shape
            assert np.array_equal(getattr(forward, name), getattr(oracle, name)), name
        grads = backward(params, buffers, batch.beta)
        reference = padded_backward(params, oracle, batch)
        assert grads.shape == reference.shape
        for p, row in enumerate(grads):
            assert np.array_equal(row, reference[p]), p

    def test_reused_buffers_match_fresh_ones(self):
        """A second episode over the same buffers, with other parameters,
        actions and targets, ends as a fresh call does: nothing carries over,
        neither the first episode's carries nor the reverse loop's dh and dc."""
        rng = np.random.default_rng(31)
        _, first = garbage_padded_episode(rng, [9, 4, 7], 5)
        buffers = EpisodeBuffers(first.states, first.lengths, 5)
        for _ in range(2):
            params, batch = garbage_padded_episode(rng, [9, 4, 7], 5, scale=0.8)
            batch.states = first.states
            forward_episode(params, buffers)
            grads = backward(params, batch.write(buffers), batch.beta)
            fresh = batch.buffers(params)
            for name in FORWARD_FIELDS:  # backward left the forward pass as it was
                assert np.array_equal(getattr(buffers, name), getattr(fresh, name)), name
            assert np.array_equal(grads, backward(params, fresh, batch.beta))

    def test_backward_reads_the_pass_in_its_buffers(self):
        """The reverse loop takes the whole forward pass, the forget-gate rows
        included, from the arrays of its buffers, whatever wrote them: over
        a stale episode of other parameters, a pass the port-major oracle
        copies in gives the gradient of the package's own pass, bit for bit."""
        rng = np.random.default_rng(33)
        params, batch = garbage_padded_episode(rng, [6, 3, 5], 4)
        other_params, _ = garbage_padded_episode(rng, [6, 3, 5], 4)
        expected = backward(params, batch.buffers(params), batch.beta).copy()
        buffers = batch.buffers(other_params)  # a stale episode
        padded_forward_episode(params, batch.states).write(buffers)
        assert np.array_equal(backward(params, buffers, batch.beta), expected)

    def test_buffers_of_another_shape_rejected(self):
        params, batch = garbage_padded_episode(np.random.default_rng(32), [3, 2], 4)
        with pytest.raises(LearnerError, match="buffers"):
            forward_episode(params, EpisodeBuffers(batch.states, batch.lengths, 5))
        with pytest.raises(LearnerError, match=r"^states must be a \(ports, steps, 6\) array$"):
            EpisodeBuffers(batch.states[..., :5], batch.lengths, 4)

    @pytest.mark.parametrize("lengths, hidden", [
        ([3, 2, 1], 4), ([4, 2], 4), ([3, 2], 5), ([3, 0], 4), ([3.0, 2.0], 4), ([[3, 2]], 4),
    ], ids=["ports", "steps", "width", "empty-port", "float", "matrix"])
    def test_backward_refuses_buffers_of_another_shape(self, lengths, hidden):
        """Ports of 3 and 2 steps at width 4.  Buffers are built for a run's
        own states, so lengths for one more port or step, for a port of no
        steps, or not as one integer per port are refused when they are
        built; buffers one unit wider are refused by backward, before any
        product."""
        params, batch = garbage_padded_episode(np.random.default_rng(35), [3, 2], 4)
        if hidden != 4:
            with pytest.raises(LearnerError, match="^episode buffers hold hidden width 5, "
                                                   "not 4$"):
                backward(params, batch.write(EpisodeBuffers(batch.states, batch.lengths, 5)),
                         batch.beta)
        else:
            with pytest.raises(LearnerError, match="^lengths must be 2 integers from 1 to 3, "
                                                   "one per port of the states$"):
                EpisodeBuffers(batch.states, np.array(lengths), hidden)

    def test_train_matches_padded_oracle_model_file(self, tmp_path, monkeypatch):
        """Training through the oracles writes the same model file byte for
        byte: every episode's passes and every Adam step agree."""
        batch, site = small_scenario(n_sessions=50)
        config = TrainConfig(episodes=4, seed=6, hidden=8)
        model, logs = train(batch, site, config, risk_value=0.05)
        model.save(tmp_path / "model.json")

        def oracle_update(coordinator, delta, learning_rate):
            adam = FlatAdam(coordinator.flat)
            adam.m, adam.v, adam.step = coordinator.m, coordinator.v, coordinator.step
            adam.apply_update(delta, learning_rate)
            coordinator.flat[...] = adam.flat
            coordinator.step = adam.step

        def oracle_backward(params, buffers, beta):
            episode = EpisodeBatch.of(buffers, beta)
            buffers.losses = oracles.episode_losses(episode, buffers)
            return padded_backward(params, PaddedForward.of(buffers), episode)

        monkeypatch.setattr(learner, "forward_episode",
                            lambda params, buffers: padded_forward_episode(
                                params, buffers.states).write(buffers))
        monkeypatch.setattr(learner, "backward", oracle_backward)
        monkeypatch.setattr(Coordinator, "apply_update", oracle_update)
        oracle_model, oracle_logs = train(batch, site, config, risk_value=0.05)
        oracle_model.save(tmp_path / "oracle.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()
        assert learner.training_log_csv(logs) == learner.training_log_csv(oracle_logs)


class TestPaddedTargetsAndLosses:
    """The padded (P, T) targets and losses against the per-port code they
    replaced: the same floats, and the same clamp warnings in port order."""

    @given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_targets_match_per_port_oracle(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        shape = (len(lengths), lengths.max())
        inside = np.arange(shape[1]) < lengths[:, None]
        rewards = np.where(inside, rng.uniform(0.0, 2.0, shape), 0.0)
        values = rng.normal(size=shape)  # the padding steps' values are garbage
        q, adv = targets(rewards, values, lengths)
        for p, n in enumerate(lengths):
            q_p, adv_p = oracles.bootstrap_targets(rewards[p, :n], values[p, :n], 0.9)
            assert np.array_equal(q[p, :n], q_p) and np.array_equal(adv[p, :n], adv_p)
        for result in (q, adv):  # exactly +0.0 past each length
            assert np.all(result[~inside] == 0.0) and not np.any(np.signbit(result[~inside]))

    @given(lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           hidden=st.integers(1, 8), scale=st.sampled_from([0.5, 80.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_losses_match_per_port_oracle(self, lengths, hidden, scale, seed, caplog):
        """At scale 80 the policy saturates and the garbage actions often
        take a clamped probability."""
        params, batch = garbage_padded_episode(np.random.default_rng(seed), lengths, hidden,
                                               scale=scale)
        buffers = batch.buffers(params)

        def package_losses(batch, buffers):
            backward(params, buffers, batch.beta)
            return buffers.losses

        results = []
        for losses in (package_losses, oracles.episode_losses):
            caplog.clear()
            results.append((losses(batch, buffers),
                            [(r.name, r.levelno, r.getMessage()) for r in caplog.records]))
        assert results[0] == results[1]

    def test_clamp_warning_once_per_clamped_port(self, caplog):
        params, batch = garbage_padded_episode(np.random.default_rng(34), [5, 5, 5], 3)
        batch.actions[:, :] = 0
        buffers = batch.buffers(params)
        buffers.probs[0, 1] = buffers.probs[2, 4] = [0.0, 1.0]
        buffers.probs[1, 2] = [1.0, 0.0]  # port 1 takes the sure action
        backward(params, buffers, batch.beta)
        assert [r.getMessage() for r in caplog.records] \
            == ["policy probability below 1e-12 clamped in log"] * 2


def oracle_scenario(rng, counts):
    """A batch with ``counts[k]`` random sessions on port k: some AV, some
    requesting no energy, some with no charging time."""
    sessions = []
    for k, count in enumerate(counts):
        start = T0
        for i in range(count):
            charge_min = int(rng.integers(0, 120))
            if rng.random() < 0.3:  # an AV gets exactly what it asked for
                energy = float(rng.uniform(1.0, 40.0))
                sessions.append(make_session(requested=energy, delivered=energy,
                                             charge_min=charge_min + 1, evse=f"E{k}",
                                             sid=f"E{k}-{i}", klass=VehicleClass.AV,
                                             start=start))
            else:
                requested = 0.0 if rng.random() < 0.1 else float(rng.uniform(1.0, 40.0))
                sessions.append(make_session(
                    requested=requested, delivered=float(rng.uniform(0.0, requested + 1.0)),
                    charge_min=charge_min, plugged_min=charge_min + int(rng.integers(1, 60)),
                    window_min=int(rng.integers(1, 240)), evse=f"E{k}", sid=f"E{k}-{i}",
                    start=start))
            start += timedelta(minutes=int(rng.integers(0, 180)))
    return batch_of(sessions)


@given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       hidden=st.integers(1, 8), risk=st.floats(0.0, 0.5, exclude_max=True),
       episodes=st.integers(1, 4), scale=st.sampled_from([None, 0.5, 60.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_train_matches_per_port_oracle_bit_for_bit(counts, hidden, risk, episodes, scale,
                                                   seed, caplog):
    """The padded episode (one draw, the reward table, padded targets and
    losses) trains the model the per-port loop trained, bit for bit, and logs
    the same warnings.  ``scale`` resumes from large random parameters, whose
    saturated policy clamps probabilities in the log."""
    rng = np.random.default_rng(seed)
    batch = oracle_scenario(rng, counts)
    config = TrainConfig(episodes=episodes, seed=seed % 1000, hidden=hidden)
    initial = None
    if scale is not None:
        initial = SharedModel(risk, Coordinator(random_params(hidden, seed % 1000, scale)), 2)
    results = []
    for run in (train, oracles.train):
        caplog.clear()
        model, logs = run(batch, site_for(batch), config, risk, copy.deepcopy(initial))
        results.append((model, learner.training_log_csv(logs),
                        [(r.name, r.levelno, r.getMessage()) for r in caplog.records]))
    (model, csv, records), (oracle_model, oracle_csv, oracle_records) = results
    for vector in ("flat", "m", "v"):
        assert np.array_equal(getattr(model.coordinator, vector),
                              getattr(oracle_model.coordinator, vector)), vector
    assert model.coordinator.step == oracle_model.coordinator.step
    assert model.train_episodes == oracle_model.train_episodes
    assert csv == oracle_csv
    assert records == oracle_records


class TestClippedDelta:
    def test_below_threshold_unchanged(self):
        grads = np.array([0.3, 0.4])
        assert np.array_equal(clipped_delta(grads, 40.0), grads)

    def test_double_norm_halved(self):
        grads = np.array([16.0, 12.0])  # norm 20
        delta = clipped_delta(grads, 10.0)
        assert grad_norm(delta) == pytest.approx(10.0)
        assert delta[0] == pytest.approx(8.0)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            grads = rng.normal(size=7) * rng.uniform(0, 100)
            assert grad_norm(clipped_delta(grads, 5.0)) <= 5.0 + 1e-9

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(LearnerError):
            clipped_delta(np.ones(2), 0.0)

    def test_overflowing_square_still_clips(self):
        """A finite gradient whose squared norm overflows a float clips to
        the threshold, with no overflow warning, not to a zero step."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = clipped_delta(np.full(10, 1e200), 40.0)
            assert grad_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert delta == pytest.approx(np.full(10, 40.0 / math.sqrt(10.0)), rel=1e-15)


class TestValueLossOverflow:
    def test_overflowing_square_logs_inf_without_warning(self):
        """Rewards above about 1e154 overflow the value loss's squares: every
        episode logs ``value_loss=inf``, no overflow warning is raised, and
        the clipped step keeps the parameters finite."""
        states = np.random.default_rng(30).uniform(0, 1, (2, 5, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coordinator, logs = learner.fit_policy(
                states, np.array([5, 5]), np.full((2, 2, 5), 1e160),
                TrainConfig(episodes=3, seed=0, hidden=4))
        assert [entry.value_loss for entry in logs] == [math.inf] * 3
        assert all(math.isfinite(entry.policy_loss) for entry in logs)
        assert np.isfinite(coordinator.flat).all()


class TestApplyUpdate:
    def test_zero_delta_keeps_parameters(self):
        coordinator = Coordinator(random_params(4, 12))
        before = coordinator.flat.copy()
        coordinator.apply_update(np.zeros_like(before), 0.001)
        assert np.array_equal(coordinator.flat, before)
        assert np.array_equal(flatten(coordinator.params), before)
        assert coordinator.step == 1

    def test_two_identical_deltas_descend(self):
        coordinator = Coordinator(random_params(4, 13))
        delta = np.full_like(coordinator.flat, 0.5)
        start = coordinator.flat.copy()
        coordinator.apply_update(delta, 0.001)
        mid = coordinator.flat.copy()
        coordinator.apply_update(delta, 0.001)
        assert np.all(mid < start)
        assert np.all(coordinator.flat < mid)

    def test_agent_equals_coordinator_after_sync(self):
        coordinator = Coordinator(random_params(4, 14))
        coordinator.apply_update(np.full_like(coordinator.flat, 0.1), 0.001)
        agent = learner._views(coordinator.flat.copy(), 4)  # as an episode copies them
        for key in PARAM_KEYS:
            assert np.array_equal(agent[key], coordinator.params[key])

    def test_matches_flat_oracle_bit_for_bit(self):
        """Five in-place steps against the whole-vector Adam that allocated
        each term."""
        rng = np.random.default_rng(17)
        coordinator = Coordinator(random_params(6, 17))
        oracle = FlatAdam(coordinator.flat)
        for _ in range(5):
            delta = rng.normal(size=coordinator.flat.size) * rng.uniform(0.01, 5.0)
            kept = delta.copy()
            coordinator.apply_update(delta, 0.003)
            oracle.apply_update(delta, 0.003)
            assert np.array_equal(delta, kept)
            for name in ("flat", "m", "v"):
                assert np.array_equal(getattr(coordinator, name), getattr(oracle, name)), name
        assert coordinator.step == oracle.step == 5


class TestFlatLayout:
    """The coordinator's flat vectors against the per-tensor Adam, norm and
    clipping they replaced."""

    def test_matches_keyed_oracle_over_steps(self):
        rng = np.random.default_rng(15)
        params = random_params(5, 15)
        coordinator = Coordinator(params)
        oracle = KeyedAdam(params, learning_rate=0.01)
        clipped = 0
        for _ in range(24):
            grads = rng.normal(size=coordinator.flat.size) * rng.uniform(0.1, 6.0)
            keyed = learner._views(grads, 5)
            assert grad_norm(grads) == pytest.approx(keyed_grad_norm(keyed), rel=1e-12)
            delta = clipped_delta(grads, 40.0)
            assert_near(delta, flatten(keyed_clipped_delta(keyed, 40.0)), 1e-12)
            clipped += grad_norm(grads) > 40.0
            coordinator.apply_update(delta, 0.01)
            oracle.apply_update(learner._views(delta, 5))
            assert np.array_equal(coordinator.flat, flatten(oracle.params))
            assert np.array_equal(coordinator.m, flatten(oracle.m))
            assert np.array_equal(coordinator.v, flatten(oracle.v))
        assert 0 < clipped < 24

    def test_params_are_views_of_flat(self):
        coordinator = Coordinator(random_params(4, 16))
        for _ in range(3):
            coordinator.apply_update(np.full_like(coordinator.flat, 0.2), 0.001)
        assert np.array_equal(flatten(coordinator.params), coordinator.flat)
        for key in PARAM_KEYS:
            assert np.shares_memory(coordinator.params[key], coordinator.flat)

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
        ids=["deepcopy", "pickle"])
    def test_copied_model_trains_and_replays_its_own_flat(self, monkeypatch, duplicate):
        """A copied model's parameters are views of the copy's ``flat``:
        training the copy further moves them, and a replay reads them."""
        batch, site = small_scenario()
        config = TrainConfig(episodes=2, seed=3, hidden=6)
        model, _ = train(batch, site, config, risk_value=0.05)
        trained = model.coordinator.flat.copy()
        twin = duplicate(model)
        train(batch, site, replace(config, episodes=1), 0.05, initial_model=twin)
        flat = twin.coordinator.flat
        assert twin.coordinator.step == model.coordinator.step + 2  # one port step each
        assert not np.array_equal(flat, trained)
        assert np.array_equal(model.coordinator.flat, trained)
        for key, view in twin.coordinator.params.items():
            assert np.shares_memory(view, flat), key
        assert np.array_equal(flatten(twin.coordinator.params), flat)
        step, read = learner.policy_value_forward, []

        def recording_step(params, states, carry):
            read.append(params)
            return step(params, states, carry)

        monkeypatch.setattr(learner, "policy_value_forward", recording_step)
        execute(twin, batch, site)
        assert read
        for params in read:
            assert np.array_equal(flatten(params), flat)
            assert all(np.shares_memory(params[key], flat) for key in PARAM_KEYS)


def small_scenario(seed=0, n_sessions=40, cv=0.7):
    batch = generate_synthetic(
        GeneratorConfig(n_sessions=n_sessions, cv_fraction=cv, n_evses=2,
                        mean_gap_minutes=200), seed=seed)
    return batch, site_for(batch)


class TestTrain:
    def test_deterministic_logs(self):
        batch, site = small_scenario()
        config = TrainConfig(episodes=5, seed=3, hidden=8)
        _, logs_a = train(batch, site, config, risk_value=0.05)
        _, logs_b = train(batch, site, config, risk_value=0.05)
        assert [(l.cumulative_reward, l.value_loss, l.policy_loss, l.entropy)
                for l in logs_a] == \
               [(l.cumulative_reward, l.value_loss, l.policy_loss, l.entropy)
                for l in logs_b]

    def test_same_seed_writes_identical_model_files(self, tmp_path):
        batch, site = small_scenario(n_sessions=50)
        config = TrainConfig(episodes=4, seed=6, hidden=8)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model, _ = train(batch, site, config, risk_value=0.05)
            model.save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_runs_of_other_shapes_leave_no_state(self, tmp_path):
        """Each train call has its own buffers: a run on another batch and
        width in between leaves the next run's model file byte-identical."""
        batch, site = small_scenario(n_sessions=50)
        other, other_site = small_scenario(seed=2, n_sessions=30)
        config = TrainConfig(episodes=3, seed=6, hidden=8)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model, _ = train(batch, site, config, risk_value=0.05)
            model.save(path)
            train(other, other_site, TrainConfig(episodes=2, seed=1, hidden=5), risk_value=0.0)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("field_name, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
        ("beta", math.nan), ("beta", math.inf), ("beta", -0.1),
        ("clip_threshold", math.nan), ("clip_threshold", math.inf), ("clip_threshold", 0.0),
        ("clip_threshold", -1.0),
    ])
    def test_config_rejects_unusable_value_naming_field(self, field_name, value):
        with pytest.raises(LearnerError, match=f"^{field_name} must be a finite "):
            TrainConfig(**{field_name: value})

    def test_all_av_reward_is_twice_sessions(self):
        batch, site = small_scenario(seed=5, cv=0.0)
        config = TrainConfig(episodes=3, seed=1, hidden=8)
        _, logs = train(batch, site, config, risk_value=0.0)
        for entry in logs:
            assert entry.cumulative_reward == pytest.approx(2.0 * len(batch))

    def test_entropy_regularization_keeps_entropy_higher(self):
        batch, site = small_scenario(seed=7, n_sessions=30)
        wins = 0
        for seed in range(5):
            base = TrainConfig(episodes=200, seed=seed, hidden=16, beta=0.05)
            off = TrainConfig(episodes=200, seed=seed, hidden=16, beta=0.0)
            _, logs_on = train(batch, site, base, risk_value=0.1)
            _, logs_off = train(batch, site, off, risk_value=0.1)
            mean_on = np.mean([l.entropy for l in logs_on])
            mean_off = np.mean([l.entropy for l in logs_off])
            wins += mean_on >= mean_off
        assert wins >= 4

    def test_fit_policy_refuses_rewards_of_another_shape(self):
        """A (2, 1, T) table would broadcast over the ports unnoticed."""
        with pytest.raises(LearnerError, match=r"^rewards_by_action must be a \(2, 2, 3\) "
                                               r"array$"):
            learner.fit_policy(np.zeros((2, 3, 6)), np.array([3, 2]), np.zeros((2, 1, 3)),
                               TrainConfig(episodes=1, hidden=4))

    def test_risk_out_of_range_rejected(self):
        batch, site = small_scenario()
        with pytest.raises(LearnerError):
            train(batch, site, TrainConfig(episodes=1, hidden=8), risk_value=1.5)


class TestZeroEnergyRule:
    def test_training_ordering_matches_engine(self, monkeypatch):
        # energy ratios 0.8, 0.5, zero request, 0.9, 0.2 on one port
        sessions = [make_session(requested=r, delivered=d, sid=f"s{i}",
                                 start=T0 + timedelta(hours=2 * i))
                    for i, (r, d) in enumerate([(10.0, 8.0), (10.0, 5.0), (0.0, 0.0),
                                                (10.0, 9.0), (10.0, 2.0)])]
        batch = batch_of(sessions)
        built = []

        def recording_table(batch, risk):
            built.append(decision_table(batch, risk))
            return built[-1]

        monkeypatch.setattr(mdp, "decision_table", recording_table)
        train(batch, site_for(batch), TrainConfig(episodes=1, hidden=4), risk_value=0.0)
        engine = ScheduleEngine(batch, site_for(batch))
        assert len(built) == 2 and engine.table is built[1]
        for trained, replayed in zip(*built):
            assert np.array_equal(trained, replayed)
        ordered, rewards = built[0]
        # action 0 schedules: each ratio against the next one's, and each
        # complement when queueing; the zero-energy session counts with ratio
        # 0, as head and as next, and the last session's ordering is vacuous
        assert ordered.tolist() == [[True, True, False, True, True],
                                    [False, False, True, False, True]]
        assert np.array_equal(rewards != 0.0, ordered)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        batch, site = small_scenario(seed=8)
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=4, hidden=8),
                         risk_value=0.2)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = SharedModel.load(path)
        assert loaded.hidden == model.hidden
        assert loaded.risk_value == model.risk_value
        assert loaded.coordinator.step == model.coordinator.step
        assert loaded.train_episodes == model.train_episodes
        for key in model.coordinator.params:
            assert np.array_equal(loaded.coordinator.params[key],
                                  model.coordinator.params[key])
        for vector in ("m", "v"):
            assert np.array_equal(getattr(loaded.coordinator, vector),
                                  getattr(model.coordinator, vector))

    def test_resume_continues_step_counter(self, tmp_path):
        batch, site = small_scenario(seed=9)
        model, _ = train(batch, site, TrainConfig(episodes=3, seed=4, hidden=8),
                         risk_value=0.2)
        steps = model.coordinator.step
        episodes = model.train_episodes
        path = tmp_path / "model.json"
        model.save(path)
        resumed = SharedModel.load(path)
        more, logs = train(batch, site, TrainConfig(episodes=2, seed=4, hidden=8),
                           risk_value=0.2, initial_model=resumed)
        assert more.coordinator.step > steps
        assert more.train_episodes == episodes + 2
        assert logs[0].episode == episodes + 1

    def test_v3_save_load_save_is_byte_identical(self, tmp_path):
        """A v5 file (the name is the v3 test's) holds only the parameters,
        the Adam state and the header, re-saves byte for byte, and each vector
        is base64 of its little-endian float64 bytes."""
        batch, site = small_scenario(seed=8)
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=4, hidden=8),
                         risk_value=0.2)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        payload = json.loads(first.read_text())
        assert payload["format"] == "ramals-model-v5"
        assert sorted(payload) == ["adam_m", "adam_v", "coordinator", "format", "hidden",
                                   "risk_value", "step", "train_episodes"]
        assert base64.b64decode(payload["coordinator"]) \
            == model.coordinator.flat.astype("<f8").tobytes()
        assert first.read_text().startswith('{\n "adam_m": "')  # sort_keys, indent=1
        SharedModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_is_bit_exact_on_extreme_values(self, tmp_path):
        """-0.0, subnormals and the ends of the float range come back bit for
        bit in the parameters and both moments."""
        extremes = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308,
                             np.nextafter(1.0, 2.0), -1.7976931348623157e308])
        model = SharedModel(risk_value=0.25, coordinator=Coordinator(random_params(hidden=4)),
                            train_episodes=7)
        for vector in (model.coordinator.flat, model.coordinator.m, model.coordinator.v):
            vector[:extremes.size] = extremes
        model.coordinator.step = 11
        model.save(tmp_path / "model.json")
        loaded = SharedModel.load(tmp_path / "model.json")
        for name in ("flat", "m", "v"):
            got, want = getattr(loaded.coordinator, name), getattr(model.coordinator, name)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # the sign of -0.0 too
        assert (loaded.coordinator.step, loaded.train_episodes, loaded.risk_value) == (11, 7, 0.25)

    def test_v1_payload_rejected_naming_format(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["format"] = "ramals-model-v1"
        payload["agents"] = {evse: payload["coordinator"] for evse in ("EVSE-1", "EVSE-2")}
        with pytest.raises(LearnerError, match="unreadable model file: format "
                                               "'ramals-model-v1', this version reads "
                                               "'ramals-model-v5' only"):
            self.load_payload(tmp_path, payload)

    def test_unknown_format_rejected(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["format"] = "ramals-model-v6"
        with pytest.raises(LearnerError, match="unreadable model file: format "
                                               "'ramals-model-v6'"):
            self.load_payload(tmp_path, payload)

    def test_corrupt_model_names_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "ramals-model-v5", "hidden": 8}')
        with pytest.raises(LearnerError, match="missing field"):
            SharedModel.load(path)

    def test_deeply_nested_model_file_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"a":' * 200_000)
        with pytest.raises(LearnerError, match="^corrupt model file: maximum recursion depth"):
            SharedModel.load(path)

    def test_corrupt_tensor_named(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["coordinator"] = encode(decode(payload["coordinator"])[:-1])
        with pytest.raises(LearnerError, match="corrupt model file: coordinator must be base64 "
                                               "of 507 float64 at hidden width 8, got 4048 "
                                               "bytes"):
            self.load_payload(tmp_path, payload)

    def saved_payload(self, tmp_path):
        batch, site = small_scenario(seed=10)
        model, _ = train(batch, site, TrainConfig(episodes=1, seed=4, hidden=8),
                         risk_value=0.2)
        model.save(tmp_path / "model.json")
        return json.loads((tmp_path / "model.json").read_text())

    def load_payload(self, tmp_path, payload):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return SharedModel.load(path)

    @pytest.mark.parametrize("moment", ["adam_m", "adam_v"])
    def test_missing_adam_moment_named(self, tmp_path, moment):
        payload = self.saved_payload(tmp_path)
        del payload[moment]
        with pytest.raises(LearnerError, match=f"corrupt model file: missing field "
                                               f"'{moment}'"):
            self.load_payload(tmp_path, payload)

    def test_misshapen_adam_moment_named(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["adam_v"] = [payload["adam_v"]]
        with pytest.raises(LearnerError, match="corrupt model file: adam_v must be base64 of "
                                               "507 float64 at hidden width 8, got list"):
            self.load_payload(tmp_path, payload)

    def test_hidden_field_contradicted_by_tensors(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["hidden"] = 16
        with pytest.raises(LearnerError, match="corrupt model file: coordinator must be base64 "
                                               "of 1523 float64 at hidden width 16, got 4056 "
                                               "bytes"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("hidden", [0, "8", True, 8.0])
    def test_bad_hidden_field_named(self, tmp_path, hidden):
        """A width that is not a JSON integer > 0 is refused by name; ``true``
        once reached ``np.zeros`` as a width of 1 and raised a TypeError."""
        payload = self.saved_payload(tmp_path)
        payload["hidden"] = hidden
        problem = "> 0" if hidden == 0 else "an integer"
        with pytest.raises(LearnerError, match=f"^corrupt model file: field 'hidden' must be "
                                               f"{problem}, got {re.escape(repr(hidden))}$"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("hidden", [4, 9])
    def test_hidden_field_contradicted_before_any_allocation(self, tmp_path, monkeypatch,
                                                             hidden):
        """Every vector is measured against the file's width before a
        coordinator of that width is built, so the width alone never sizes
        an array."""
        payload = self.saved_payload(tmp_path)
        payload["hidden"] = hidden
        monkeypatch.setattr(learner, "Coordinator",
                            lambda params: pytest.fail("built before the vectors were checked"))
        with pytest.raises(LearnerError, match=f"^corrupt model file: coordinator must be "
                                               f"base64 of [0-9]+ float64 at hidden width "
                                               f"{hidden}, got 4056 bytes$"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("value", ["x", None])
    @pytest.mark.parametrize("field_name", ["risk_value", "step", "train_episodes"])
    def test_bad_scalar_field_named(self, tmp_path, field_name, value):
        payload = self.saved_payload(tmp_path)
        payload[field_name] = value
        with pytest.raises(LearnerError, match=f"corrupt model file: field '{field_name}' "
                                               f"must be an? (integer|number), got {value!r}"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("value", [3.0, -0.1, 1.0])
    def test_risk_value_outside_unit_interval_rejected(self, tmp_path, value):
        payload = self.saved_payload(tmp_path)
        payload["risk_value"] = value
        with pytest.raises(LearnerError, match=rf"corrupt model file: field 'risk_value' must "
                                               rf"lie in \[0, 1\), got {value!r}"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("field_name, value", [
        ("step", -3), ("train_episodes", -1), ("step", 10**400), ("train_episodes", 10**309),
    ], ids=["negative-step", "negative-episodes", "step-beyond-float", "episodes-beyond-float"])
    def test_unusable_count_named(self, tmp_path, field_name, value):
        """Adam's bias correction raises its betas to the step as a float, so
        a step is refused when it is negative or no float can hold it, and
        so is such an episode count."""
        payload = self.saved_payload(tmp_path)
        payload[field_name] = value
        with pytest.raises(LearnerError, match=f"^corrupt model file: field '{field_name}' must "
                                               f"be a non-negative integer a float can hold, "
                                               f"got {value}$"):
            self.load_payload(tmp_path, payload)

    def test_integer_too_long_to_parse_named(self, tmp_path):
        """An integer of more digits than Python converts from text is a
        corrupt file, not a ValueError traceback."""
        path = tmp_path / "model.json"
        path.write_text(re.sub(r'"step": [0-9]+', '"step": 1' + "0" * 5000,
                               json.dumps(self.saved_payload(tmp_path))))
        with pytest.raises(LearnerError, match="^corrupt model file: Exceeds the limit"):
            SharedModel.load(path)

    def test_fractional_step_rejected(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["step"] = 2.5
        with pytest.raises(LearnerError, match="field 'step' must be an integer, got 2.5"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("entry", ["0.05", True])
    @pytest.mark.parametrize("vector", ["coordinator", "adam_m", "adam_v"])
    def test_non_number_entry_named(self, tmp_path, vector, entry):
        """A vector written as a JSON list, the v3 form, is rejected naming
        the vector, whatever its entries."""
        payload = self.saved_payload(tmp_path)
        payload[vector] = decode(payload[vector]).tolist()
        payload[vector][3] = entry
        with pytest.raises(LearnerError, match=f"corrupt model file: {vector} must be base64 "
                                               f"of 507 float64 at hidden width 8, got list"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("vector", ["coordinator", "adam_m", "adam_v"])
    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda text: None, "got NoneType", id="null"),
        pytest.param(lambda text: 0.5, "got float", id="number"),
        pytest.param(lambda text: text[:-1], "not valid base64", id="cut"),
        pytest.param(lambda text: "*" + text[1:], "not valid base64", id="symbol"),
        pytest.param(lambda text: text[:4] + " " + text[4:], "not valid base64", id="space"),
        pytest.param(lambda text: text[:4] + "\u00e9" + text[5:], "not valid base64",
                     id="non-ascii"),
        pytest.param(lambda text: encode(decode(text)[1:]), "got [0-9]+ bytes",
                     id="one-float-short"),
        pytest.param(lambda text: base64.b64encode(base64.b64decode(text) + b"\0").decode(),
                     "got [0-9]+ bytes", id="one-byte-long"),
        pytest.param(lambda text: base64.b64encode(base64.b64decode(text)[:-1]).decode(),
                     "got [0-9]+ bytes", id="one-byte-short"),
    ])
    def test_bad_vector_text_named(self, tmp_path, vector, edit, problem):
        payload = self.saved_payload(tmp_path)
        payload[vector] = edit(payload[vector])
        with pytest.raises(LearnerError, match=f"corrupt model file: {vector} must be base64 "
                                               f"of 507 float64 at hidden width 8, {problem}$"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("vector", ["coordinator", "adam_m", "adam_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_named(self, tmp_path, vector, bad):
        payload = self.saved_payload(tmp_path)
        values = decode(payload[vector])
        values[5] = bad
        payload[vector] = encode(values)
        with pytest.raises(LearnerError, match=f"corrupt model file: {vector} must be base64 "
                                               f"of 507 float64 at hidden width 8, entry 5 is "
                                               f"not finite"):
            self.load_payload(tmp_path, payload)

    @pytest.mark.parametrize("version", ["v2", "v3", "v4"])
    def test_stored_file_of_older_format_rejected(self, version):
        """One hidden-4 model in each earlier format: v2 also stored gamma,
        beta, alpha, the learning rate and a shape with every tensor, v3
        wrote each vector as a JSON list of numbers, and v4 stored the carry
        each port ended training with."""
        with pytest.raises(LearnerError, match=f"unreadable model file: format "
                                               f"'ramals-model-{version}', this version reads "
                                               f"'ramals-model-v5' only"):
            SharedModel.load(Path(__file__).parent / "data" / f"model-{version}-hidden4.json")

    def test_stored_v3_file_resaves_and_replays(self, tmp_path):
        """The stored v4 file converted to v5, its carries dropped (the name
        is the v3 test's; seed-3 batch below, 3 episodes): it re-saves byte
        for byte and replays to the outcomes the v2 file gave."""
        source = Path(__file__).parent / "data" / "model-v5-hidden4.json"
        model = SharedModel.load(source)
        assert model.hidden == 4
        model.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == source.read_bytes()
        batch = generate_synthetic(GeneratorConfig(n_sessions=30, cv_fraction=0.5, n_evses=2,
                                                   mean_gap_minutes=250), seed=3)
        outcomes, report = execute(model, batch, site_for(batch))  # execute audits
        text = outcomes_jsonl(outcomes) + report.to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == V2_FIXTURE_REPLAY_SHA256
