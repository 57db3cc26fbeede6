"""Shared recurrent actor-critic for the per-port scheduling agents.

One gated recurrent cell feeds a two-way softmax policy head and a scalar
value head.  Every port runs its own agent over its own session sequence; a
coordinator holds the shared parameters and applies the (norm-clipped)
gradient of each agent through Adam in a fixed port order.  Within an episode
every agent runs on one copy of the parameters taken at the episode's start,
so its forward and backward passes run all ports as one batch, zero-padded to
(P, T, 6) and masked by each port's length.  Execution steps the same cell one
decision at a time (:func:`policy_value_forward`) on rows of an input
projection computed once per port, as the batched pass hoists it too.  All
forward and backward math is explicit numpy so the gradients can be checked
against central finite differences.

Per-step rewards come from each port's :class:`ramals.mdp.PortSessions`, the
decision inputs the execution engine reads too; the one-step
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
from .sessions import SessionBatch, SiteConfig

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


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.reciprocal(1.0 + np.exp(-x), out=out)


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


def _cell_rows(wh: np.ndarray, z: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One cell step for one row or a stack of rows: ``z`` holds each row's
    input projection ``x @ wx.T + b`` on entry and its activated gates
    ``[i, f, g, o]`` on return.  Returns the new (cell, hidden) state."""
    hidden = h_prev.shape[-1]
    z += h_prev @ wh.T
    gi, gf = z[..., :hidden], z[..., hidden:2 * hidden]
    gc, go = z[..., 2 * hidden:3 * hidden], z[..., 3 * hidden:]
    _sigmoid(z[..., :2 * hidden], out=z[..., :2 * hidden])
    np.tanh(gc, out=gc)
    _sigmoid(go, out=go)
    c = gf * c_prev + gi * gc
    return c, go * np.tanh(c)


def _softmax2(logits: np.ndarray) -> np.ndarray:
    # the array methods skip np.max's and np.sum's Python-level dispatch,
    # which costs more than the reduction on one decision's two logits
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def policy_value_forward(params: dict, z_row: np.ndarray, carry: tuple):
    """Single decision step: (P(schedule), value, new carry).

    ``z_row`` is the session's row of its port's input projection
    ``states @ wx.T + b``, computed once per port; it is left unchanged.
    """
    h, c = carry
    c, h = _cell_rows(params["wh"], z_row.copy(), h, c)
    p_schedule = float(_softmax2(params["wp"] @ h + params["bp"])[0])
    value = float(params["wv"][0] @ h) + float(params["bv"][0])
    # both probabilities are finite or neither is
    if not (math.isfinite(p_schedule) and math.isfinite(value)):
        raise LearnerError("non-finite policy or value output")
    return p_schedule, value, (h, c)


@dataclass
class EpisodeForward:
    """Cached forward pass over a padded batch of P port sequences of T steps;
    steps past a port's length are computed but never read."""

    probs: np.ndarray        # (P, T, 2)
    values: np.ndarray       # (P, T)
    hiddens: np.ndarray      # (P, T + 1, H); step 0 is the zero start carry
    cells: np.ndarray        # (P, T + 1, H)
    gates: np.ndarray        # (P, T, 4H) activated [i, f, g, o]
    final_carry: tuple       # ((P, H), (P, H)) after each port's last step


def forward_episode(params: dict, states: np.ndarray, lengths: np.ndarray) -> EpisodeForward:
    """Run every port of an episode from a zero carry as one batch.  ``states``
    is (P, T, 6), zero-padded past each port's length in ``lengths``."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[2] != STATE_DIM:
        raise LearnerError(f"states must be a (ports, steps, {STATE_DIM}) array")
    n_ports, n_steps, _ = states.shape
    hiddens = np.zeros((n_ports, n_steps + 1, hidden_size(params)))
    cells = np.zeros_like(hiddens)
    gates = states @ params["wx"].T  # the input projection, hoisted
    gates += params["b"]
    for t in range(n_steps):
        cells[:, t + 1], hiddens[:, t + 1] = _cell_rows(params["wh"], gates[:, t],
                                                        hiddens[:, t], cells[:, t])
    probs = _softmax2(hiddens[:, 1:] @ params["wp"].T + params["bp"])
    values = hiddens[:, 1:] @ params["wv"][0] + params["bv"][0]
    if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(values))):
        raise LearnerError("non-finite output in episode forward pass")
    last = (np.arange(n_ports), lengths)
    return EpisodeForward(probs, values, hiddens, cells, gates, (hiddens[last], cells[last]))


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
    """Everything the backward pass needs for one episode of P ports, padded
    to T steps; entries past a port's length are ignored."""

    states: np.ndarray       # (P, T, 6)
    lengths: np.ndarray      # (P,) steps of each port
    actions: np.ndarray      # (P, T) indices into the 2-way distribution
    q_targets: np.ndarray    # (P, T) constants
    advantages: np.ndarray   # (P, T) constants
    beta: float


def episode_losses(forward: EpisodeForward, batch: EpisodeBatch) -> list[tuple]:
    """(value, policy, entropy, total) loss of each port, in port order; each
    is a mean over that port's own steps."""
    losses = []
    for p, n in enumerate(batch.lengths):
        probs = forward.probs[p, :n]
        taken = probs[np.arange(n), batch.actions[p, :n]]
        v_loss = value_loss(batch.q_targets[p, :n], forward.values[p, :n])
        p_loss = policy_loss(batch.advantages[p, :n], taken)
        entropy_mean = float(np.mean(_entropy_rows(probs)))
        losses.append((v_loss, p_loss, entropy_mean,
                       total_loss(v_loss, p_loss, entropy_mean, batch.beta)))
    return losses


def backward(params: dict, forward: EpisodeForward, batch: EpisodeBatch) -> list[dict]:
    """Exact reverse-mode gradient of each port's total loss, in port order.

    The time loop runs over (P, ·) rows.  Padding steps get zero loss
    gradients, so nothing flows back from them, and each port's terms keep
    its own 1/T_p.  Weight gradients are one batched product per episode.
    """
    n_ports, n_steps = batch.actions.shape
    hidden = hidden_size(params)
    mask = np.arange(n_steps) < batch.lengths[:, None]
    inv_n = 1.0 / batch.lengths[:, None]
    probs = forward.probs
    one_hot = np.eye(2)[batch.actions]
    # policy term: -mean(adv * log pi_taken); clamped probabilities have
    # zero slope, matching the loss definition
    taken = np.sum(probs * one_hot, axis=-1)
    policy_weight = np.where(taken >= LOG_PROB_FLOOR, -batch.advantages * inv_n, 0.0)
    d_logits = policy_weight[..., None] * (one_hot - probs)
    # entropy term: -beta * mean(H)
    safe_log = np.log(np.maximum(probs, LOG_PROB_FLOOR))
    d_logits += (batch.beta * inv_n)[..., None] * probs \
        * (safe_log + _entropy_rows(probs)[..., None])
    d_logits *= mask[..., None]
    # value term: 0.5 * mean((q - v)^2)
    d_value = (forward.values - batch.q_targets) * inv_n * mask

    gates = forward.gates.reshape(n_ports, n_steps, 4, hidden)
    gi, gf, gc, go = (gates[:, :, k] for k in range(4))
    tanh_c = np.tanh(forward.cells[:, 1:])
    # dz of each gate is dc (rows i, f, g) or dh (row o) times ``local``: the
    # gate's activation slope times its partner in c = f*c_prev + i*g and
    # h = o*tanh(c).
    local = 1.0 - gates
    local *= gates
    local[:, :, 2] = 1.0 - gc * gc
    for k, partner in enumerate((gc, forward.cells[:, :-1], gi, tanh_c)):
        local[:, :, k] *= partner
    dh_to_dc = go * (1.0 - tanh_c * tanh_c)
    dh_heads = d_logits @ params["wp"] + d_value[..., None] * params["wv"][0]
    dh_next = dc_next = np.zeros((n_ports, hidden))
    for t in range(n_steps - 1, -1, -1):  # turns local into dz step by step
        dh = dh_heads[:, t] + dh_next
        dc = dh * dh_to_dc[:, t] + dc_next
        local[:, t, :3] *= dc[:, None]
        local[:, t, 3] *= dh
        dh_next = local[:, t].reshape(n_ports, 4 * hidden) @ params["wh"]
        dc_next = dc * gf[:, t]

    dz = local.reshape(n_ports, n_steps, 4 * hidden)
    outputs = forward.hiddens[:, 1:]
    grads = {
        "wx": dz.transpose(0, 2, 1) @ batch.states,
        "wh": dz.transpose(0, 2, 1) @ forward.hiddens[:, :-1],
        "b": dz.sum(axis=1),
        "wp": d_logits.transpose(0, 2, 1) @ outputs,
        "bp": d_logits.sum(axis=1),
        "wv": d_value[:, None, :] @ outputs,
        "bv": d_value.sum(axis=1)[:, None],
    }
    for key in PARAM_KEYS:
        if not np.all(np.isfinite(grads[key])):
            raise LearnerError(f"non-finite gradient in {key!r}")
    return [{key: grads[key][p] for key in PARAM_KEYS} for p in range(n_ports)]


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
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
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
        return {k: v.copy() for k, v in self.params.items()}


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

        def unpack(blob, context, like=None):
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
                if like is not None and arr.shape != like[key].shape:
                    raise LearnerError(f"corrupt model file: tensor {context}.{key} has "
                                       f"shape {arr.shape}, expected {like[key].shape}")
                out[key] = arr
            return out

        for field_name in ("format", "hidden", "gamma", "beta", "alpha", "risk_value",
                           "learning_rate", "step", "coordinator", "adam_m", "adam_v",
                           "carries"):
            if field_name not in payload:
                raise LearnerError(f"corrupt model file: missing field {field_name!r}")
        if payload["format"] not in READABLE_FORMATS:
            raise LearnerError(f"corrupt model file: unknown format {payload['format']!r}")
        if not isinstance(payload["carries"], dict):
            raise LearnerError("corrupt model file: carries is not an object")
        coordinator = Coordinator(unpack(payload["coordinator"], "coordinator"),
                                  learning_rate=float(payload["learning_rate"]))
        coordinator.m = unpack(payload["adam_m"], "adam_m", like=coordinator.params)
        coordinator.v = unpack(payload["adam_v"], "adam_v", like=coordinator.params)
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


def _episode_rewards(port: mdp.PortSessions, actions: np.ndarray, risk: float) -> np.ndarray:
    """Each step's reward; action 0 schedules."""
    return np.array([port.reward(t, 1 if action == 0 else 0, risk)
                     for t, action in enumerate(actions)])


def train(batch: SessionBatch, site_config: SiteConfig | None,
          config: TrainConfig, risk_value: float | None = None,
          initial_model: SharedModel | None = None):
    """Run the multi-agent training loop; returns (SharedModel, [EpisodeLog]).

    Deterministic for a fixed seed: one global sample stream, agents visited
    in port order, coordinator updates applied in that same order.  Every
    agent in an episode runs on one copy of the coordinator's parameters
    taken when the episode starts, so one batched forward and backward pass
    covers all ports; action draws, clipping and Adam go port by port.
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

    ports = mdp.port_sessions(batch)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    if initial_model is not None:
        if initial_model.hidden != config.hidden:
            raise LearnerError("resume model hidden width does not match config")
        coordinator = initial_model.coordinator
    else:
        coordinator = Coordinator(init_params(config.hidden, rng),
                                  learning_rate=config.learning_rate)
    lengths = np.array([len(port.sessions) for port in ports])
    states = np.zeros((len(ports), lengths.max(), STATE_DIM))
    for p, port in enumerate(ports):
        states[p, :lengths[p]] = mdp.state_matrix(port.sessions)

    logs: list[EpisodeLog] = []
    start_episode = initial_model.train_episodes if initial_model is not None else 0
    for episode in range(start_episode, start_episode + config.episodes):
        params = coordinator.sync_copy()
        forward = forward_episode(params, states, lengths)
        actions = np.zeros(states.shape[:2], dtype=int)
        q_targets, advantages = np.zeros((2,) + states.shape[:2])
        ep_reward = 0.0
        for p, port in enumerate(ports):
            n = lengths[p]
            draws = rng.random(n)
            actions[p, :n] = draws >= forward.probs[p, :n, 0]  # 0 = schedule
            rewards = _episode_rewards(port, actions[p, :n], risk_value)
            q_targets[p, :n], advantages[p, :n] = bootstrap_targets(
                rewards, forward.values[p, :n], config.gamma)
            ep_reward += float(np.sum(rewards))
        ep_batch = EpisodeBatch(states, lengths, actions, q_targets, advantages, config.beta)
        for grads in backward(params, forward, ep_batch):
            coordinator.apply_update(clipped_delta(grads, config.clip_threshold))
        v_losses, p_losses, entropies, _totals = zip(*episode_losses(forward, ep_batch))
        logs.append(EpisodeLog(episode + 1, ep_reward, float(np.mean(v_losses)),
                               float(np.mean(p_losses)), float(np.mean(entropies))))

    final_h, final_c = forward.final_carry
    carries = {port.evse_id: (final_h[p], final_c[p]) for p, port in enumerate(ports)}
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
