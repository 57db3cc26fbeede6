"""Recurrent actor-critic: forward passes, losses, gradients, updates, training."""

import copy
import json
import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

import ramals.learner as learner
import ramals.mdp as mdp
from ramals import (
    GeneratorConfig,
    LearnerError,
    SessionBatch,
    SiteConfig,
    TrainConfig,
    generate_synthetic,
    port_sessions,
    train,
)
from ramals.learner import (
    Coordinator,
    EpisodeBatch,
    SharedModel,
    backward,
    bootstrap_targets,
    clipped_delta,
    episode_losses,
    forward_episode,
    grad_norm,
    init_params,
    policy_loss,
    policy_value_forward,
    total_loss,
    value_loss,
)
from ramals.scheduler import ScheduleEngine, _ForcedRule

from helpers import T0, make_session, site_for
from oracles import scalar_backward, scalar_forward


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


def targets(forward, rewards, lengths, gamma=0.9):
    """Per-port bootstrap targets and advantages, zero past each length."""
    q, adv = np.zeros(rewards.shape), np.zeros(rewards.shape)
    for p, n in enumerate(lengths):
        q[p, :n], adv[p, :n] = bootstrap_targets(rewards[p, :n], forward.values[p, :n], gamma)
    return q, adv


def random_batch(hidden=8, n=3, seed=0, beta=0.05):
    """One port of ``n`` random steps through the batched pass."""
    rng = np.random.default_rng(seed)
    params = random_params(hidden, seed)
    states, lengths = padded([rng.uniform(0.0, 1.0, (n, 6))])
    forward = forward_episode(params, states, lengths)
    actions = rng.integers(0, 2, (1, n))
    rewards = rng.uniform(0.0, 2.0, (1, n))
    q, adv = targets(forward, rewards, lengths)
    return params, forward, EpisodeBatch(states, lengths, actions, q, adv, beta)


def hidden_sequence(params, states):
    """Hidden state after each step of one port's (T, 6) sequence, and the
    final carry."""
    forward = forward_episode(params, states[None], np.array([len(states)]))
    h, c = forward.final_carry
    return forward.hiddens[0, 1:], (h[0], c[0])


def episode_loss_value(params, batch):
    """Summed total loss of the batch's ports as a plain function of the
    parameters (targets held fixed); what the finite differences perturb."""
    forward = forward_episode(params, batch.states, batch.lengths)
    return sum(losses[3] for losses in episode_losses(forward, batch))


def finite_difference_grads(params, batch, h=1e-5):
    grads = {}
    for key, tensor in params.items():
        grad = np.zeros_like(tensor)
        flat = tensor.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = episode_loss_value(params, batch)
            flat[i] = original - h
            down = episode_loss_value(params, batch)
            flat[i] = original
            grad.ravel()[i] = (up - down) / (2.0 * h)
        grads[key] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for key in analytic:
        denom = np.maximum(np.maximum(np.abs(analytic[key]), np.abs(numeric[key])),
                           1e-6)
        worst = max(worst, float(np.max(np.abs(analytic[key] - numeric[key]) / denom)))
    return worst


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
            forward_episode(random_params(4, 0), np.ones((1, 2, 5)), np.array([2]))


def projection(params, states):
    """Input projection rows ``states @ wx.T + b``, as the policy rule
    computes them once per port."""
    return np.atleast_2d(states) @ params["wx"].T + params["b"]


def zero_carry(params):
    hidden = learner.hidden_size(params)
    return np.zeros(hidden), np.zeros(hidden)


class TestPolicyValueForward:
    def test_zero_heads_uniform_policy_zero_value(self):
        params = random_params(6, 4)
        params["wp"][:] = 0.0
        params["bp"][:] = 0.0
        params["wv"][:] = 0.0
        params["bv"][:] = 0.0
        p_schedule, value, _ = policy_value_forward(
            params, projection(params, np.full(6, 0.3))[0], zero_carry(params))
        assert p_schedule == pytest.approx(0.5)
        assert value == 0.0

    def test_probabilities_sum_to_one_many_parameterizations(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            params = init_params(4, rng)
            z_row = projection(params, rng.uniform(0, 1, 6))[0]
            p_schedule, _, _ = policy_value_forward(params, z_row, zero_carry(params))
            assert isinstance(p_schedule, float) and 0.0 <= p_schedule <= 1.0
            logits = params["wp"] @ learner._cell_rows(params["wh"], z_row.copy(),
                                                       *zero_carry(params))[1]
            assert p_schedule == pytest.approx(
                1.0 / (1.0 + math.exp(logits[1] - logits[0])), rel=1e-12)

    def test_value_head_separate_from_policy_head(self):
        params = random_params(6, 6)
        z_row = projection(params, np.full(6, 0.4))[0]
        _, value_before, _ = policy_value_forward(params, z_row, zero_carry(params))
        params["wp"] += 0.5
        _, value_after, _ = policy_value_forward(params, z_row, zero_carry(params))
        assert value_before == value_after

    def test_steps_match_episode_forward(self):
        """Execution steps the same cell that training runs over whole episodes."""
        params = random_params(6, 7, scale=0.8)
        states = np.random.default_rng(8).uniform(0, 1, (5, 6))
        forward = forward_episode(params, states[None], np.array([5]))
        z = projection(params, states)
        cached = z.copy()
        carry = zero_carry(params)
        for t in range(len(states)):
            p_schedule, value, carry = policy_value_forward(params, z[t], carry)
            assert p_schedule == pytest.approx(forward.probs[0, t, 0], rel=1e-12)
            assert value == pytest.approx(forward.values[0, t], rel=1e-12)
            assert np.allclose(carry[0], forward.hiddens[0, t + 1], rtol=1e-12, atol=0)
        assert np.allclose(carry[1], forward.final_carry[1][0], rtol=1e-12, atol=0)
        assert np.array_equal(z, cached)  # the cached projection is only read

    def test_non_finite_output_rejected(self):
        params = random_params(4, 9)
        params["bv"][0] = np.inf
        with pytest.raises(LearnerError, match="non-finite"):
            policy_value_forward(params, projection(params, np.full(6, 0.5))[0],
                                 zero_carry(params))


class TestLosses:
    def test_td_advantage(self):
        # q_t = r_t + gamma * V(s_{t+1}), terminal value 0; advantage q - V
        q, adv = bootstrap_targets(np.array([1.0, 3.0]), np.array([2.0, 3.0]), 0.9)
        assert q == pytest.approx([1.0 + 0.9 * 3.0, 3.0])
        assert adv == pytest.approx([1.7, 0.0])
        _, flipped = bootstrap_targets(np.array([1.0]), np.array([2.0]), 0.9)
        _, mirrored = bootstrap_targets(np.array([3.0]), np.array([2.0]), 0.9)
        assert flipped[0] == -mirrored[0]

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
        values = learner._entropy_rows(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert values[0] == pytest.approx(math.log(2.0))
        assert values[1] == pytest.approx(0.0, abs=1e-9)

    def test_entropy_maximal_at_uniform(self):
        grid = np.linspace(0.01, 0.99, 99)
        values = learner._entropy_rows(np.stack([grid, 1.0 - grid], axis=1))
        assert max(values) == pytest.approx(math.log(2.0), rel=1e-3)
        assert np.argmax(values) == 49

    def test_total_loss_composition(self):
        assert total_loss(1.25, -0.5, 0.6, 0.0) == pytest.approx(0.75)
        uniform_entropy = math.log(2.0)
        assert total_loss(0.0, 0.0, uniform_entropy, 0.05) \
            == pytest.approx(-0.05 * uniform_entropy)

    def test_entropy_term_never_increases_when_beta_zero(self):
        _, forward, batch = random_batch(seed=11)
        [(v, p, ent, total_b)] = episode_losses(forward, batch)
        total_0 = total_loss(v, p, ent, 0.0)
        assert total_b <= total_0 + 1e-12


class TestBackward:
    def test_gradcheck_total_loss(self):
        params, forward, batch = random_batch(hidden=6, n=4, seed=1)
        [analytic] = backward(params, forward, batch)
        numeric = finite_difference_grads(params, batch)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradcheck_term_isolation(self):
        params, forward, batch = random_batch(hidden=5, n=3, seed=2)
        zero_adv = np.zeros_like(batch.advantages)
        for isolated in (
            # value only: zero advantages and beta
            replace(batch, advantages=zero_adv, beta=0.0),
            # policy only: targets equal to values kill the value residual
            replace(batch, q_targets=forward.values.copy(), beta=0.0),
            # entropy only
            replace(batch, q_targets=forward.values.copy(), advantages=zero_adv, beta=0.7),
        ):
            [analytic] = backward(params, forward, isolated)
            assert max_relative_error(analytic,
                                      finite_difference_grads(params, isolated)) < 1e-4

    def test_zero_signal_zero_gradient(self):
        params, forward, batch = random_batch(hidden=4, n=3, seed=3)
        silent = replace(batch, q_targets=forward.values.copy(),
                         advantages=np.zeros_like(batch.advantages), beta=0.0)
        [grads] = backward(params, forward, silent)
        assert grad_norm(grads) == pytest.approx(0.0, abs=1e-12)

    def test_record_additivity(self):
        """With per-record mean losses, the gradient decomposes over records:
        silencing complementary halves of the batch and summing the two
        gradients reproduces the full gradient."""
        params = random_params(5, 9)
        rng = np.random.default_rng(10)
        states, lengths = padded([rng.uniform(0, 1, (6, 6))])
        actions = rng.integers(0, 2, (1, 6))
        forward = forward_episode(params, states, lengths)
        q = forward.values + rng.normal(size=(1, 6))
        adv = rng.normal(size=(1, 6))

        def silenced(keep):
            q_part = forward.values.copy()
            adv_part = np.zeros((1, 6))
            q_part[:, keep] = q[:, keep]
            adv_part[:, keep] = adv[:, keep]
            return backward(params, forward,
                            EpisodeBatch(states, lengths, actions, q_part, adv_part, 0.0))[0]

        [full] = backward(params, forward, EpisodeBatch(states, lengths, actions, q, adv, 0.0))
        first = silenced(slice(0, 3))
        second = silenced(slice(3, 6))
        combined = {k: first[k] + second[k] for k in full}
        assert max_relative_error(full, combined) < 1e-9

    def test_grad_norm(self):
        assert grad_norm({"a": np.zeros(3)}) == 0.0
        assert grad_norm({"a": np.array([3.0]), "b": np.array([4.0])}) == 5.0
        grads = {"a": np.array([1.0, -2.0]), "b": np.array([[2.0]])}
        assert grad_norm({k: 3.0 * v for k, v in grads.items()}) \
            == pytest.approx(3.0 * grad_norm(grads))


def random_ports(lengths, hidden=6, seed=20):
    """Ports of the given lengths; a shorter port's padding steps hold
    garbage states, actions and targets."""
    rng = np.random.default_rng(seed)
    params = random_params(hidden, seed, scale=0.8)
    states = rng.uniform(0.0, 1.0, (len(lengths), max(lengths), 6))
    lengths = np.array(lengths)
    forward = forward_episode(params, states, lengths)
    actions = rng.integers(0, 2, states.shape[:2])
    q, adv = targets(forward, rng.uniform(0.0, 2.0, states.shape[:2]), lengths)
    return params, forward, EpisodeBatch(states, lengths, actions, q, adv, 0.05)


def assert_near(ours, reference, rel):
    """Every entry within ``rel`` times the reference's largest entry."""
    assert np.max(np.abs(ours - reference)) <= rel * np.max(np.abs(reference))


class TestBatchedPass:
    """The padded (P, T) pass against the per-port, per-step reference."""

    TOLERANCE = 1e-12  # relative; the batched products sum in another order

    def test_matches_scalar_oracle_over_unequal_ports(self):
        params, forward, batch = random_ports([5, 1, 8, 3])
        grads = backward(params, forward, batch)
        for p, n in enumerate(batch.lengths):
            oracle = scalar_forward(params, batch.states[p, :n])
            assert_near(forward.probs[p, :n], oracle.probs, self.TOLERANCE)
            assert_near(forward.values[p, :n], oracle.values, self.TOLERANCE)
            for ours, theirs in zip(forward.final_carry, oracle.final_carry):
                assert_near(ours[p], theirs, self.TOLERANCE)
            reference = scalar_backward(params, oracle, batch.actions[p, :n],
                                        batch.q_targets[p, :n], batch.advantages[p, :n],
                                        batch.beta)
            for key in reference:
                assert_near(grads[p][key], reference[key], self.TOLERANCE)

    def test_padding_leaves_port_unchanged(self):
        params, forward, batch = random_ports([4, 1, 6])
        rng = np.random.default_rng(21)

        def extended(a, *extra):
            return np.concatenate([a, rng.uniform(-2.0, 2.0, (a.shape[0], 5) + extra)
                                   .astype(a.dtype)], axis=1)

        long_batch = EpisodeBatch(extended(batch.states, 6), batch.lengths,
                                  extended(batch.actions) % 2, extended(batch.q_targets),
                                  extended(batch.advantages), batch.beta)
        long_forward = forward_episode(params, long_batch.states, long_batch.lengths)
        short_grads = backward(params, forward, batch)
        long_grads = backward(params, long_forward, long_batch)
        for short, long in zip(short_grads, long_grads):
            for key in short:
                assert np.array_equal(short[key], long[key]), key
        for short, long in zip(forward.final_carry, long_forward.final_carry):
            assert np.array_equal(short, long)


class TestClippedDelta:
    def test_below_threshold_unchanged(self):
        grads = {"a": np.array([0.3, 0.4])}
        delta = clipped_delta(grads, 40.0)
        assert np.array_equal(delta["a"], grads["a"])

    def test_double_norm_halved(self):
        grads = {"a": np.array([16.0]), "b": np.array([12.0])}  # norm 20
        delta = clipped_delta(grads, 10.0)
        assert grad_norm(delta) == pytest.approx(10.0)
        assert delta["a"][0] == pytest.approx(8.0)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            grads = {"a": rng.normal(size=7) * rng.uniform(0, 100)}
            assert grad_norm(clipped_delta(grads, 5.0)) <= 5.0 + 1e-9

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(LearnerError):
            clipped_delta({"a": np.ones(2)}, 0.0)


class TestApplyUpdate:
    def test_zero_delta_keeps_parameters(self):
        coordinator = Coordinator(random_params(4, 12), learning_rate=0.001)
        before = {k: v.copy() for k, v in coordinator.params.items()}
        coordinator.apply_update({k: np.zeros_like(v) for k, v in before.items()})
        agent = coordinator.sync_copy()
        for key in before:
            assert np.array_equal(coordinator.params[key], before[key])
            assert np.array_equal(agent[key], before[key])
        assert coordinator.step == 1

    def test_two_identical_deltas_descend(self):
        coordinator = Coordinator(random_params(4, 13), learning_rate=0.001)
        delta = {k: np.full_like(v, 0.5) for k, v in coordinator.params.items()}
        start = {k: v.copy() for k, v in coordinator.params.items()}
        coordinator.apply_update(delta)
        mid = {k: v.copy() for k, v in coordinator.params.items()}
        coordinator.apply_update(delta)
        for key in start:
            assert np.all(mid[key] < start[key])
            assert np.all(coordinator.params[key] < mid[key])

    def test_agent_equals_coordinator_after_sync(self):
        coordinator = Coordinator(random_params(4, 14))
        coordinator.apply_update({k: np.full_like(v, 0.1)
                                  for k, v in coordinator.params.items()})
        agent = coordinator.sync_copy()
        for key in agent:
            assert np.array_equal(agent[key], coordinator.params[key])


def small_scenario(seed=0, n_sessions=40, cv=0.7):
    batch = generate_synthetic(
        GeneratorConfig(n_sessions=n_sessions, cv_fraction=cv, n_evses=2,
                        mean_gap_minutes=200), seed=seed)
    return batch, site_for(batch)


class TestTrain:
    def test_deterministic_logs(self):
        batch, site = small_scenario()
        config = TrainConfig(episodes=5, seed=3, hidden=8, alpha=0.9)
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
        batch = SessionBatch(sessions)
        built = []

        def recording_port_sessions(batch):
            built.append(port_sessions(batch))
            return built[-1]

        monkeypatch.setattr(mdp, "port_sessions", recording_port_sessions)
        train(batch, site_for(batch), TrainConfig(episodes=1, hidden=4), risk_value=0.0)
        engine = ScheduleEngine(batch, site_for(batch), _ForcedRule())
        assert len(built) == 2 and built[0] == built[1]
        (port,) = built[0]
        assert engine.ports == {"EVSE-1": port}
        assert port.upsilons == (0.8, 0.5, 0.0, 0.9, 0.2, None)
        for schedule_now in (0, 1):
            actions = np.full(len(sessions), 1 - schedule_now)  # action 0 schedules
            rewards = learner._episode_rewards(port, actions, risk=0.0)
            assert len(rewards) == len(sessions)
            for t in range(len(sessions)):
                assert (rewards[t] != 0.0) == port.ordering_holds(t, schedule_now)
        # the zero-energy session counts with ratio 0, as head and as next
        assert port.ordering_holds(1, 1) and not port.ordering_holds(1, 0)
        assert port.ordering_holds(2, 0) and not port.ordering_holds(2, 1)


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
        for key in model.coordinator.params:
            assert np.array_equal(loaded.coordinator.params[key],
                                  model.coordinator.params[key])

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

    def test_v2_save_load_save_is_byte_identical(self, tmp_path):
        batch, site = small_scenario(seed=8)
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=4, hidden=8),
                         risk_value=0.2)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        assert json.loads(first.read_text())["format"] == "ramals-model-v2"
        assert "agents" not in json.loads(first.read_text())
        SharedModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_v1_payload_loads_ignoring_agents(self, tmp_path):
        batch, site = small_scenario(seed=8)
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=4, hidden=8),
                         risk_value=0.2)
        v2_path, v1_path = tmp_path / "v2.json", tmp_path / "v1.json"
        model.save(v2_path)
        payload = json.loads(v2_path.read_text())
        payload["format"] = "ramals-model-v1"
        payload["agents"] = {evse: payload["coordinator"] for evse in payload["carries"]}
        v1_path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        loaded = SharedModel.load(v1_path)
        for ours, theirs in ((loaded.coordinator.params, model.coordinator.params),
                             (loaded.coordinator.m, model.coordinator.m),
                             (loaded.coordinator.v, model.coordinator.v)):
            for key in theirs:
                assert np.array_equal(ours[key], theirs[key])
        assert loaded.coordinator.step == model.coordinator.step
        assert loaded.coordinator.learning_rate == model.coordinator.learning_rate
        assert sorted(loaded.carries) == sorted(model.carries)
        for evse, (h, c) in model.carries.items():
            assert np.array_equal(loaded.carries[evse][0], h)
            assert np.array_equal(loaded.carries[evse][1], c)
        assert loaded.train_episodes == model.train_episodes
        resaved = tmp_path / "resaved.json"
        loaded.save(resaved)
        assert resaved.read_bytes() == v2_path.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        batch, site = small_scenario(seed=8)
        model, _ = train(batch, site, TrainConfig(episodes=1, seed=4, hidden=8),
                         risk_value=0.2)
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        payload["format"] = "ramals-model-v3"
        path.write_text(json.dumps(payload))
        with pytest.raises(LearnerError, match="unknown format"):
            SharedModel.load(path)

    def test_corrupt_model_names_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "ramals-model-v1", "hidden": 8}')
        with pytest.raises(LearnerError, match="missing field"):
            SharedModel.load(path)

    def test_corrupt_tensor_named(self, tmp_path):
        batch, site = small_scenario(seed=10)
        model, _ = train(batch, site, TrainConfig(episodes=1, seed=4, hidden=8),
                         risk_value=0.2)
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        del payload["coordinator"]["wx"]
        path.write_text(json.dumps(payload))
        with pytest.raises(LearnerError, match="coordinator.wx"):
            SharedModel.load(path)

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
        payload["adam_v"]["wh"] = {"shape": [8, 8], "data": [0.0] * 64}
        with pytest.raises(LearnerError, match=r"corrupt model file: tensor adam_v.wh "
                                               r"has shape \(8, 8\), expected \(32, 8\)"):
            self.load_payload(tmp_path, payload)

    def test_non_object_carries_named(self, tmp_path):
        payload = self.saved_payload(tmp_path)
        payload["carries"] = [0.0, 1.0]
        with pytest.raises(LearnerError, match="corrupt model file: carries is not an object"):
            self.load_payload(tmp_path, payload)
