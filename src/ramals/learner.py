"""Shared recurrent actor-critic for the per-port scheduling agents.

One gated recurrent cell feeds a two-way softmax policy head and a scalar
value head.  Every port runs its own agent over its own session sequence; a
coordinator holds the shared parameters and applies the (norm-clipped)
gradient of each agent through Adam in a fixed port order.  Within an episode
every agent runs on one copy of the parameters taken at the episode's start.
All forward and backward math is explicit numpy so the gradients can be
checked against central finite differences.

Per-step rewards follow the decision model in :mod:`ramals.mdp`; the one-step
bootstrapped targets and advantages are constants with respect to the
parameters (no gradient flows through them).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import mdp
from .sessions import SessionBatch, SessionError, SiteConfig, energy_ratio, rate_ratio, time_ratio

log = logging.getLogger(__name__)

STATE_DIM = mdp.STATE_DIM
PARAM_KEYS = ("wx", "wh", "b", "wp", "bp", "wv", "bv")
LOG_PROB_FLOOR = 1e-12
MODEL_FORMAT = "ramals-model-v2"
READABLE_FORMATS = (MODEL_FORMAT, "ramals-model-v1")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class LearnerError(ValueError):
    """Raised for invalid learner inputs or corrupt model files."""


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def init_params(hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform gate weights in [-1/sqrt(hidden), 1/sqrt(hidden)], zero biases,
    forget-gate bias 1."""
    limit = 1.0 / math.sqrt(hidden)
    params = {
        "wx": rng.uniform(-limit, limit, (4 * hidden, STATE_DIM)),
        "wh": rng.uniform(-limit, limit, (4 * hidden, hidden)),
        "b": np.zeros(4 * hidden),
        "wp": rng.uniform(-limit, limit, (2, hidden)),
        "bp": np.zeros(2),
        "wv": rng.uniform(-limit, limit, (1, hidden)),
        "bv": np.zeros(1),
    }
    params["b"][hidden:2 * hidden] = 1.0
    return params


def zero_like(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def clone_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def hidden_size(params: dict) -> int:
    return params["wh"].shape[1]


def _check_shapes(params: dict) -> None:
    h = hidden_size(params)
    expected = {"wx": (4 * h, STATE_DIM), "wh": (4 * h, h), "b": (4 * h,),
                "wp": (2, h), "bp": (2,), "wv": (1, h), "bv": (1,)}
    for key, shape in expected.items():
        if key not in params or params[key].shape != shape:
            raise LearnerError(f"parameter {key!r} has shape "
                               f"{params.get(key, np.empty(0)).shape}, expected {shape}")


def _cell_step(params: dict, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    hidden = h_prev.shape[0]
    z = params["wx"] @ x + params["wh"] @ h_prev + params["b"]
    gi = _sigmoid(z[:hidden])
    gf = _sigmoid(z[hidden:2 * hidden])
    gc = np.tanh(z[2 * hidden:3 * hidden])
    go = _sigmoid(z[3 * hidden:])
    c = gf * c_prev + gi * gc
    tanh_c = np.tanh(c)
    h = go * tanh_c
    return h, c, (x, h_prev, c_prev, gi, gf, gc, go, tanh_c)


def rnn_forward(params: dict, state_sequence: np.ndarray, carry=None):
    """Run the cell over a (T, 6) sequence; returns (hidden_sequence, new_carry)."""
    states = np.atleast_2d(np.asarray(state_sequence, dtype=float))
    if states.shape[1] != STATE_DIM:
        raise LearnerError(f"state rows must have {STATE_DIM} components")
    hidden = hidden_size(params)
    h, c = carry if carry is not None else (np.zeros(hidden), np.zeros(hidden))
    outputs = np.empty((states.shape[0], hidden))
    for t in range(states.shape[0]):
        h, c, _ = _cell_step(params, states[t], h, c)
        outputs[t] = h
    return outputs, (h, c)


def _softmax2(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def policy_value_forward(params: dict, state: np.ndarray, carry=None):
    """Single decision step: (ActionDistribution, value, new_carry)."""
    hiddens, new_carry = rnn_forward(params, np.asarray(state, dtype=float)[None, :], carry)
    h = hiddens[0]
    probs = _softmax2(params["wp"] @ h + params["bp"])
    value = float((params["wv"] @ h)[0]) + float(params["bv"][0])
    if not np.all(np.isfinite(probs)) or not math.isfinite(value):
        raise LearnerError("non-finite policy or value output")
    return mdp.ActionDistribution(float(probs[0]), float(probs[1])), value, new_carry


@dataclass
class EpisodeForward:
    """Cached forward pass over one agent's session sequence."""

    probs: np.ndarray      # (T, 2)
    values: np.ndarray     # (T,)
    hiddens: np.ndarray    # (T, H)
    cells: np.ndarray      # (T, H)
    caches: list
    final_carry: tuple


def forward_episode(params: dict, states: np.ndarray, carry=None) -> EpisodeForward:
    states = np.asarray(states, dtype=float)
    hidden = hidden_size(params)
    h, c = carry if carry is not None else (np.zeros(hidden), np.zeros(hidden))
    n = states.shape[0]
    probs = np.empty((n, 2))
    values = np.empty(n)
    hiddens = np.empty((n, hidden))
    cells = np.empty((n, hidden))
    caches = []
    for t in range(n):
        h, c, cache = _cell_step(params, states[t], h, c)
        hiddens[t] = h
        cells[t] = c
        caches.append(cache)
        probs[t] = _softmax2(params["wp"] @ h + params["bp"])
        values[t] = float((params["wv"] @ h)[0]) + params["bv"][0]
    if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(values))):
        raise LearnerError("non-finite output in episode forward pass")
    return EpisodeForward(probs, values, hiddens, cells, caches, (h, c))


def bootstrap_targets(rewards: np.ndarray, values: np.ndarray, gamma: float):
    """One-step targets q_t = r_t + gamma * V(s_{t+1}) with terminal value 0,
    and the advantages q - V.  Both are constants for the backward pass."""
    next_values = np.append(values[1:], 0.0)
    q = rewards + gamma * next_values
    return q, q - values


def value_loss(q_targets, values) -> float:
    """Half mean squared bootstrap residual."""
    q = np.asarray(q_targets, dtype=float)
    v = np.asarray(values, dtype=float)
    if q.size == 0:
        raise LearnerError("value loss needs a non-empty batch")
    return float(0.5 * np.mean((q - v) ** 2))


def policy_loss(advantages, taken_probs) -> float:
    """Negative advantage-weighted log probability of the taken actions."""
    adv = np.asarray(advantages, dtype=float)
    p = np.asarray(taken_probs, dtype=float)
    if p.size == 0:
        raise LearnerError("policy loss needs a non-empty batch")
    if np.any(p < LOG_PROB_FLOOR):
        log.warning("policy probability below %.0e clamped in log", LOG_PROB_FLOOR)
    return float(-np.mean(adv * np.log(np.maximum(p, LOG_PROB_FLOOR))))


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy, in nats, of each row of two-way action probabilities."""
    safe = np.maximum(probs, LOG_PROB_FLOOR)
    return -np.sum(probs * np.log(safe), axis=-1)


def total_loss(value: float, policy: float, entropy_mean: float, beta: float) -> float:
    """Overall self-learning loss: value + policy - beta * entropy."""
    return value + policy - beta * entropy_mean


@dataclass
class EpisodeBatch:
    """Everything the backward pass needs for one agent episode."""

    states: np.ndarray       # (T, 6)
    actions: np.ndarray      # (T,) indices into the 2-way distribution
    q_targets: np.ndarray    # (T,) constants
    advantages: np.ndarray   # (T,) constants
    beta: float
    carry: tuple | None = None


def episode_losses(forward: EpisodeForward, batch: EpisodeBatch):
    taken = forward.probs[np.arange(len(batch.actions)), batch.actions]
    v_loss = value_loss(batch.q_targets, forward.values)
    p_loss = policy_loss(batch.advantages, taken)
    entropy_mean = float(np.mean(_entropy_rows(forward.probs)))
    return v_loss, p_loss, entropy_mean, total_loss(v_loss, p_loss, entropy_mean, batch.beta)


def episode_loss_value(params: dict, batch: EpisodeBatch) -> float:
    """Total loss as a plain function of the parameters (targets held fixed);
    this is what the finite-difference oracle perturbs."""
    forward = forward_episode(params, batch.states, batch.carry)
    return episode_losses(forward, batch)[3]


def backward(params: dict, forward: EpisodeForward, batch: EpisodeBatch) -> dict:
    """Exact reverse-mode gradient of the total loss for one episode."""
    hidden = hidden_size(params)
    n = batch.states.shape[0]
    grads = zero_like(params)
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    probs = forward.probs
    entropies = _entropy_rows(probs)
    inv_n = 1.0 / n

    for t in range(n - 1, -1, -1):
        pi = probs[t]
        one_hot = np.zeros(2)
        one_hot[batch.actions[t]] = 1.0
        # policy term: -mean(adv * log pi_taken); clamped probabilities have
        # zero slope, matching the loss definition
        if pi[batch.actions[t]] >= LOG_PROB_FLOOR:
            d_logits = -batch.advantages[t] * inv_n * (one_hot - pi)
        else:
            d_logits = np.zeros(2)
        # entropy term: -beta * mean(H)
        safe_log = np.log(np.maximum(pi, LOG_PROB_FLOOR))
        d_logits += batch.beta * inv_n * pi * (safe_log + entropies[t])
        # value term: 0.5 * mean((q - v)^2)
        d_value = (forward.values[t] - batch.q_targets[t]) * inv_n

        h = forward.hiddens[t]
        grads["wp"] += np.outer(d_logits, h)
        grads["bp"] += d_logits
        grads["wv"] += d_value * h[None, :]
        grads["bv"] += d_value

        dh = params["wp"].T @ d_logits + params["wv"][0] * d_value + dh_next
        x, h_prev, c_prev, gi, gf, gc, go, tanh_c = forward.caches[t]
        dc = dh * go * (1.0 - tanh_c * tanh_c) + dc_next
        d_go = dh * tanh_c
        d_gi = dc * gc
        d_gc = dc * gi
        d_gf = dc * c_prev
        dz = np.concatenate([
            d_gi * gi * (1.0 - gi),
            d_gf * gf * (1.0 - gf),
            d_gc * (1.0 - gc * gc),
            d_go * go * (1.0 - go),
        ])
        grads["wx"] += np.outer(dz, x)
        grads["wh"] += np.outer(dz, h_prev)
        grads["b"] += dz
        dh_next = params["wh"].T @ dz
        dc_next = dc * gf

    for key in PARAM_KEYS:
        if not np.all(np.isfinite(grads[key])):
            raise LearnerError(f"non-finite gradient in {key!r}")
    return grads


def grad_norm(grads: dict) -> float:
    """Euclidean norm over every gradient component."""
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clipped_delta(grads: dict, clip_threshold: float) -> dict:
    """Global norm clipping: scale the whole gradient so its norm is at most
    the threshold."""
    if clip_threshold <= 0:
        raise LearnerError("clip threshold must be positive")
    norm = grad_norm(grads)
    scale = min(1.0, clip_threshold / norm) if norm > 0 else 1.0
    return {k: g * scale for k, g in grads.items()}


class Coordinator:
    """Holds the shared parameters and the Adam state."""

    def __init__(self, params: dict, learning_rate: float = 0.001):
        _check_shapes(params)
        self.params = params
        self.learning_rate = learning_rate
        self.m = zero_like(params)
        self.v = zero_like(params)
        self.step = 0

    def apply_update(self, delta: dict) -> None:
        """One Adam descent step on the shared parameters using ``delta`` as
        the gradient."""
        if set(delta) != set(self.params):
            raise LearnerError("delta keys do not match coordinator parameters")
        self.step += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step
        b2c = 1.0 - ADAM_BETA2 ** self.step
        for key in PARAM_KEYS:
            g = delta[key]
            if g.shape != self.params[key].shape:
                raise LearnerError(f"delta {key!r} shape mismatch")
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[key] / b1c
            v_hat = self.v[key] / b2c
            self.params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def sync_copy(self) -> dict:
        return clone_params(self.params)


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 2000
    learning_rate: float = 0.001
    gamma: float = 0.9
    beta: float = 0.05
    alpha: float = 0.99
    hidden: int = 64
    seed: int = 0
    clip_threshold: float = 40.0

    def __post_init__(self):
        if self.episodes <= 0:
            raise LearnerError("episodes must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise LearnerError("gamma must lie in (0, 1)")
        if self.hidden <= 0:
            raise LearnerError("hidden width must be positive")
        if self.learning_rate <= 0:
            raise LearnerError("learning rate must be positive")
        if self.beta < 0:
            raise LearnerError("entropy weight must be non-negative")


@dataclass
class EpisodeLog:
    episode: int
    cumulative_reward: float
    value_loss: float
    policy_loss: float
    entropy: float


@dataclass
class SharedModel:
    """Serializable container for the trained system.

    Every port decides with the coordinator's parameters.  A ``ramals-model-v2``
    file is one JSON object holding:

    - ``format``, ``hidden``, ``gamma``, ``beta``, ``alpha``, ``risk_value``
      and ``train_episodes``
    - the coordinator's ``learning_rate``, Adam ``step``, parameters
      (``coordinator``) and Adam moments (``adam_m``, ``adam_v``), each tensor
      stored as ``{"shape": [...], "data": [...]}``
    - ``carries``: the recurrent carry ``{"h": [...], "c": [...]}`` each port
      ended training with, keyed by EVSE id

    ``ramals-model-v1`` files are read too.  Their ``agents`` block of
    per-port parameter copies, which training always left equal to the
    coordinator, is ignored.
    """

    hidden: int
    gamma: float
    beta: float
    alpha: float
    risk_value: float
    coordinator: Coordinator
    carries: dict[str, tuple]
    train_episodes: int = 0

    def carry_for(self, evse_id: str):
        if evse_id in self.carries:
            h, c = self.carries[evse_id]
            return h.copy(), c.copy()
        return np.zeros(self.hidden), np.zeros(self.hidden)

    def save(self, path) -> None:
        def pack(params):
            return {k: {"shape": list(v.shape), "data": [float(x) for x in v.ravel()]}
                    for k, v in params.items()}
        payload = {
            "format": MODEL_FORMAT,
            "hidden": self.hidden,
            "gamma": self.gamma,
            "beta": self.beta,
            "alpha": self.alpha,
            "risk_value": self.risk_value,
            "learning_rate": self.coordinator.learning_rate,
            "step": self.coordinator.step,
            "train_episodes": self.train_episodes,
            "coordinator": pack(self.coordinator.params),
            "adam_m": pack(self.coordinator.m),
            "adam_v": pack(self.coordinator.v),
            "carries": {evse: {"h": [float(x) for x in h], "c": [float(x) for x in c]}
                        for evse, (h, c) in sorted(self.carries.items())},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SharedModel":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LearnerError(f"corrupt model file: {exc}") from exc

        def unpack(blob, context):
            if not isinstance(blob, dict):
                raise LearnerError(f"corrupt model file: {context} is not an object")
            out = {}
            for key in PARAM_KEYS:
                if key not in blob:
                    raise LearnerError(f"corrupt model file: missing tensor "
                                       f"{context}.{key}")
                entry = blob[key]
                try:
                    arr = np.array(entry["data"], dtype=float).reshape(entry["shape"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise LearnerError(f"corrupt model file: bad tensor "
                                       f"{context}.{key}") from exc
                out[key] = arr
            return out

        for field_name in ("format", "hidden", "gamma", "beta", "alpha", "risk_value",
                           "learning_rate", "step", "coordinator", "carries"):
            if field_name not in payload:
                raise LearnerError(f"corrupt model file: missing field {field_name!r}")
        if payload["format"] not in READABLE_FORMATS:
            raise LearnerError(f"corrupt model file: unknown format {payload['format']!r}")
        coordinator = Coordinator(unpack(payload["coordinator"], "coordinator"),
                                  learning_rate=float(payload["learning_rate"]))
        coordinator.m = unpack(payload["adam_m"], "adam_m")
        coordinator.v = unpack(payload["adam_v"], "adam_v")
        coordinator.step = int(payload["step"])
        carries = {}
        for evse, blob in payload["carries"].items():
            try:
                carries[evse] = (np.array(blob["h"], dtype=float),
                                 np.array(blob["c"], dtype=float))
            except (KeyError, TypeError, ValueError) as exc:
                raise LearnerError(f"corrupt model file: bad carry for {evse!r}") from exc
        return cls(
            hidden=int(payload["hidden"]),
            gamma=float(payload["gamma"]),
            beta=float(payload["beta"]),
            alpha=float(payload["alpha"]),
            risk_value=float(payload["risk_value"]),
            coordinator=coordinator,
            carries=carries,
            train_episodes=int(payload.get("train_episodes", 0)),
        )


@dataclass
class _AgentData:
    """Per-port training arrays precomputed from the batch."""

    evse_id: str
    states: np.ndarray
    upsilons: np.ndarray
    rhos: np.ndarray
    zeta: float


def _prepare_agent_data(batch: SessionBatch) -> list[_AgentData]:
    prepared = []
    for evse_id in batch.evse_ids:
        group = batch.group(evse_id)
        usable = []
        for session in group:
            if session.energy_requested_kwh <= 0:
                log.warning("session %r: zero requested energy, skipped in training",
                            session.session_id)
                continue
            usable.append(session)
        if not usable:
            log.warning("EVSE %r has no usable sessions, skipped", evse_id)
            continue
        try:
            zeta = rate_ratio(usable)
        except SessionError:
            log.warning("EVSE %r: rate ratio undefined, using 0", evse_id)
            zeta = 0.0
        states = np.stack([mdp.EvseState(s).vector() for s in usable])
        upsilons = np.array([energy_ratio(s) for s in usable])
        rhos = np.array([time_ratio(s) for s in usable])
        prepared.append(_AgentData(evse_id, states, upsilons, rhos, zeta))
    return prepared


def _episode_rewards(data: _AgentData, actions: np.ndarray, risk: float) -> np.ndarray:
    # Zero-energy sessions were dropped in preparation, so "next" is the next
    # session with a defined energy ratio.
    n = len(actions)
    rewards = np.empty(n)
    for t in range(n):
        schedule_now = 1 if actions[t] == 0 else 0
        upsilon_next = data.upsilons[t + 1] if t + 1 < n else None
        ordered = mdp.ordering_holds(data.upsilons[t], upsilon_next, schedule_now)
        rewards[t] = mdp.session_reward(data.zeta, data.rhos[t], risk, ordered)
    return rewards


def train(batch: SessionBatch, site_config: SiteConfig | None,
          config: TrainConfig, risk_value: float | None = None,
          initial_model: SharedModel | None = None):
    """Run the multi-agent training loop; returns (SharedModel, [EpisodeLog]).

    Deterministic for a fixed seed: one global sample stream, agents visited
    in port order, coordinator updates applied in that same order.  Every
    agent in an episode runs on one copy of the coordinator's parameters
    taken when the episode starts.
    """
    if len(batch) == 0:
        raise LearnerError("training needs a non-empty batch")
    if site_config is not None:
        known = set(site_config.evse_ids)
        missing = [e for e in batch.evse_ids if e not in known]
        if missing:
            raise LearnerError(f"batch references EVSEs absent from site config: {missing}")

    if risk_value is None:
        from .risk import estimate_risk
        risk_value = estimate_risk(batch, config.alpha).cvar_normalized
    if not 0.0 <= risk_value < 1.0:
        raise LearnerError("risk value must lie in [0, 1)")

    data = _prepare_agent_data(batch)
    if not data:
        raise LearnerError("no usable sessions in batch")

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    if initial_model is not None:
        if initial_model.hidden != config.hidden:
            raise LearnerError("resume model hidden width does not match config")
        coordinator = initial_model.coordinator
    else:
        coordinator = Coordinator(init_params(config.hidden, rng),
                                  learning_rate=config.learning_rate)
    carries = {d.evse_id: (np.zeros(config.hidden), np.zeros(config.hidden)) for d in data}

    logs: list[EpisodeLog] = []
    start_episode = initial_model.train_episodes if initial_model is not None else 0
    for episode in range(start_episode, start_episode + config.episodes):
        ep_reward = 0.0
        v_losses, p_losses, entropies = [], [], []
        params = coordinator.sync_copy()
        for agent_data in data:
            n = agent_data.states.shape[0]
            forward = forward_episode(params, agent_data.states)
            draws = rng.random(n)
            actions = (draws >= forward.probs[:, 0]).astype(int)  # 0 = schedule
            rewards = _episode_rewards(agent_data, actions, risk_value)
            q_targets, advantages = bootstrap_targets(rewards, forward.values,
                                                      config.gamma)
            ep_batch = EpisodeBatch(agent_data.states, actions, q_targets,
                                    advantages, config.beta)
            v_loss, p_loss, entropy_mean, _total = episode_losses(forward, ep_batch)
            grads = backward(params, forward, ep_batch)
            delta = clipped_delta(grads, config.clip_threshold)
            coordinator.apply_update(delta)
            carries[agent_data.evse_id] = forward.final_carry
            ep_reward += float(np.sum(rewards))
            v_losses.append(v_loss)
            p_losses.append(p_loss)
            entropies.append(entropy_mean)
        logs.append(EpisodeLog(episode + 1, ep_reward, float(np.mean(v_losses)),
                               float(np.mean(p_losses)), float(np.mean(entropies))))

    model = SharedModel(
        hidden=config.hidden,
        gamma=config.gamma,
        beta=config.beta,
        alpha=config.alpha,
        risk_value=float(risk_value),
        coordinator=coordinator,
        carries=carries,
        train_episodes=start_episode + config.episodes,
    )
    return model, logs


def training_log_csv(logs) -> str:
    lines = ["episode,cumulative_reward,value_loss,policy_loss,entropy_loss"]
    for entry in logs:
        lines.append(f"{entry.episode},{entry.cumulative_reward!r},"
                     f"{entry.value_loss!r},{entry.policy_loss!r},{entry.entropy!r}")
    return "\n".join(lines) + "\n"
