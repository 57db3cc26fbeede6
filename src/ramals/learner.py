"""Shared recurrent actor-critic for the per-port scheduling agents.

One gated recurrent cell feeds a two-way softmax policy head and a scalar
value head.  Every port runs its own agent over its own session sequence; a
coordinator holds the shared parameters, one flat vector laid out by
:func:`param_shapes`, and applies each agent's (norm-clipped) flat gradient
through Adam in a fixed port order.  Within an episode every agent runs on
the parameters as they stood at the episode's start, so its forward and
backward passes run all ports as one batch, zero-padded to (P, T, 6) and
masked by each port's length.  Execution steps the same cell
(:func:`policy_value_forward`) for every port awaiting a decision at once, as
one stack of rows: a port's step reads only its own carry and its head
session's state row, which the step projects itself.  Training and execution
both start every port from a zero carry, so a model is its parameters alone.
All forward and backward math is explicit numpy so the gradients can be
checked against central finite differences.

A training run is one :class:`EpisodeBuffers`, built from the run's padded
states and lengths with their padding mask: :func:`forward_episode` writes
each episode's recurrent states, gates, probabilities and values there, the
episode loop its actions and :func:`bootstrap_targets` its targets and
advantages, and :func:`backward` reads them and writes the gradients and the
per-port losses.  The recurrent arrays are time-major, (T, P, ·): each step
of the forward and the reverse time loop reads and writes contiguous (P, ·)
rows in place, through row views built once with the buffers, as Adam
reuses two scratch vectors.  The layout changes no arithmetic: every product
and elementwise operation is the one a port-major pass over fresh arrays
makes, in the same order, so models and logs come out the same bit for bit.
Training and execution step one cell, :func:`_cell_rows`, in 10 numpy calls,
each caller under one ``np.errstate(over="ignore")``.  Each caller hands it
the negated input projection ``-(x @ wx.T + b)``, once per episode or call,
so the step's pre-activation comes negated, as the logistic's ``exp`` takes
it: a pair of (P, H) blocks ``[-tanh g, c_prev]`` times ``[i, f]`` holds both
terms of ``c``, so the gates' g slot is scratch.  Both read the cell's
output through one head step, :func:`_heads`.

:func:`fit_policy` is the episode loop on arrays: (P, T, 6) states, (P,)
lengths and the (2, P, T) reward of each step under each action, which
:func:`train` reads from the batch's :func:`ramals.mdp.decision_table`, as
the execution engine does.  An episode picks its rewards by its sampled
actions, one uniform draw per step of every port.  Its one-step bootstrapped
targets and advantages are constants with respect to the parameters (no
gradient flows through them).
"""

from __future__ import annotations

import base64
import json
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mdp
from .sessions import SessionBatch, SiteConfig

log = logging.getLogger(__name__)

STATE_DIM = mdp.STATE_DIM
PARAM_KEYS = ("wx", "wh", "b", "wp", "bp", "wv", "bv")
LOG_PROB_FLOOR = 1e-12
MODEL_FORMAT = "ramals-model-v5"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class LearnerError(ValueError):
    """Raised for invalid learner inputs or corrupt model files."""


def param_shapes(hidden: int) -> dict[str, tuple]:
    """Shape of each parameter tensor, in ``PARAM_KEYS`` order: the layout of
    the coordinator's flat vectors and of a model file's."""
    return {"wx": (4 * hidden, STATE_DIM), "wh": (4 * hidden, hidden), "b": (4 * hidden,),
            "wp": (2, hidden), "bp": (2,), "wv": (1, hidden), "bv": (1,)}


def init_params(hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform gate weights in [-1/sqrt(hidden), 1/sqrt(hidden)], zero biases,
    forget-gate bias 1."""
    limit = 1.0 / math.sqrt(hidden)
    params = {key: rng.uniform(-limit, limit, shape) if len(shape) == 2 else np.zeros(shape)
              for key, shape in param_shapes(hidden).items()}
    params["b"][hidden:2 * hidden] = 1.0
    return params


def hidden_size(params: dict) -> int:
    return params["wh"].shape[1]


def _views(flat: np.ndarray, hidden: int) -> dict[str, np.ndarray]:
    """Each tensor of the :func:`param_shapes` layout as a view into the last
    axis of ``flat``: shaped ``(*lead, *shape)`` for a ``(*lead, n)`` array."""
    shapes = param_shapes(hidden)
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1],
                     axis=-1)
    return {key: part.reshape(flat.shape[:-1] + shape)
            for (key, shape), part in zip(shapes.items(), parts)}


def _cell_operands(z: np.ndarray, pair: np.ndarray, product: np.ndarray) -> tuple:
    """The views :func:`_cell_rows` works through, built once per step: the
    ``[i, f]`` blocks of ``z`` as a (2, k, H) view, its ``g`` and ``o`` blocks,
    the (2, k, H) ``pair`` and its ``-tanh g`` block, and a scratch ``product``
    like ``z``, whose memory also holds the two (k, H) terms of ``c``."""
    k, hidden = len(z), z.shape[-1] // 4
    terms = product.reshape(4, k, hidden)[:2]
    return (z[:, :2 * hidden].reshape(k, 2, hidden).transpose(1, 0, 2),
            z[:, 2 * hidden:3 * hidden], z[:, 3 * hidden:], pair, pair[0], product, terms,
            terms[0], terms[1])


def _cell_rows(wh_t: np.ndarray, z: np.ndarray, h_prev: np.ndarray, c: np.ndarray,
               h: np.ndarray, operands: tuple) -> None:
    """One cell step for a stack of rows in 10 numpy calls, into the new state
    ``c`` and ``h``; ``wh_t`` is ``wh.T``, ``operands`` :func:`_cell_operands`.
    On entry ``z`` holds the negated input projection ``-(x @ wx.T + b)`` and
    the pair ``[·, c_prev]``.  Subtracting the recurrent product leaves the
    negated pre-activation ``-a`` in ``z``, whose logistic is ``1 / (1 +
    exp(-a))``.  The step writes ``tanh(-g) = -tanh g`` into the pair's first
    block and the logistic into all of ``z``: the i, f and o gates, and
    scratch in the g slot.  ``c = f·c_prev - i·(-tanh g)`` is one product of
    ``[i, f]`` by the pair and one difference.  Negation is exact, so every
    value is the unnegated step's bit for bit, up to the sign of a zero.  The
    caller holds ``np.errstate(over="ignore")``: a gate whose pre-activation
    is below about -709 is exactly 0."""
    z_if, z_g, z_o, pair, neg_tanh_g, product, terms, i_terms, f_terms = operands
    z -= np.dot(h_prev, wh_t, out=product)
    np.tanh(z_g, out=neg_tanh_g)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    np.multiply(z_if, pair, out=terms)  # [-i·tanh g, f·c_prev]
    np.subtract(f_terms, i_terms, out=c)
    np.tanh(c, out=h)
    h *= z_o


def _heads(params: dict, h: np.ndarray, probs=None, values=None) -> tuple:
    """The softmax policy and the value of hidden states ``h`` (..., H), into
    ``probs`` and ``values`` where given; refuses a non-finite output."""
    probs = np.add(h @ params["wp"].T, params["bp"], out=probs)
    # array methods: np.max's and np.sum's dispatch outweighs a step's reduction
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    values = np.add(h @ params["wv"][0], params["bv"][0], out=values)
    if not (np.isfinite(probs).all() and np.isfinite(values).all()):
        raise LearnerError("non-finite policy or value output")
    return probs, values


def policy_value_forward(params: dict, states: np.ndarray, carry: tuple):
    """One decision step for a stack of k independent rows: (P(schedule),
    value, new carry), the first two as (k,) arrays and the carry as a pair of
    (k, H) arrays.

    Row j of the (k, 6) ``states`` is one session's state row, projected here
    (``states @ wx.T + b``, negated for the step) and stepped from row j of
    the carry ``(h, c)``; ``states`` is only read.
    """
    h_prev, c_prev = carry
    z = states @ params["wx"].T
    np.subtract(-params["b"], z, out=z)  # -(x @ wx.T + b)
    pair = np.empty((2,) + h_prev.shape)
    c = pair[1]  # c_prev, until the step's difference writes the new state
    c[...] = c_prev
    h = np.empty_like(h_prev)
    with np.errstate(over="ignore"):  # a gate's logistic may overflow to exactly 0
        _cell_rows(params["wh"].T, z, h_prev, c, h, _cell_operands(z, pair, np.empty_like(z)))
    probs, value = _heads(params, h)
    return probs[:, 0], value, (h, c)


class EpisodeBuffers:
    """One training run's pass over P ports of T steps at hidden width H: its
    inputs, and arrays the run allocates once and every episode overwrites.

    - inputs: ``states`` (P, T, 6), ``lengths`` (P,), the padding mask
      ``inside`` (P, T), true on each port's steps, and ``inv_n``, 1/T_p
    - forward pass, written by :func:`forward_episode` under its errstate:
      ``hiddens`` (T + 1, P, H) and ``pairs`` (T + 1, 2, P, H), step t's
      ``[-tanh g, c_prev]``, whose second block is ``cells``, both with the zero
      start carry at step 0, ``gates`` (T, P, 4H), activated ``[i, f, ·, o]``
      with scratch in the g slot, and the heads' ``probs`` (P, T, 2) and
      ``values`` (P, T), port-major; steps past a port's length are computed
      but never read, so port p's last carry is ``(hiddens[n_p, p], cells[n_p, p])``
    - episode, written by the loop and :func:`bootstrap_targets`:
      ``actions``, ``q_targets`` and ``advantages`` (P, T); a run never
      writes them past a port's length, where they stay 0
    - backward pass, written by :func:`backward`: ``dz`` (T, P, 4H),
      ``dh_heads``, ``tanh_c`` and ``tanh_g`` (T, P, H), ``loss_terms`` (3, P, T), each
      step's squared residual, weighted log-probability and entropy,
      ``port_hiddens`` (P, T + 1, H), a port-major copy of ``hiddens``,
      ``grads``, one flat gradient row per port, and ``losses``, each port's
      (value, policy, entropy) loss

    Each step's row views are built here once: ``cell_steps`` holds the
    arguments of each forward step's :func:`_cell_rows` after ``wh.T``, and
    ``reverse_steps`` the rows of each backward step, last step first, so
    neither time loop makes a view.  Each pass writes every entry before it
    reads it, the zero start carry included.
    """

    def __init__(self, states, lengths, hidden: int):
        self.states = np.asarray(states, dtype=float)
        self.lengths = np.asarray(lengths)
        if self.states.ndim != 3 or self.states.shape[2] != STATE_DIM:
            raise LearnerError(f"states must be a (ports, steps, {STATE_DIM}) array")
        n_ports, n_steps, _ = self.states.shape
        if not (self.lengths.shape == (n_ports,) and self.lengths.dtype.kind in "iu"
                and np.all((self.lengths >= 1) & (self.lengths <= n_steps))):
            raise LearnerError(f"lengths must be {n_ports} integers from 1 to {n_steps}, "
                               f"one per port of the states")
        self.inside = np.arange(n_steps) < self.lengths[:, None]
        self.inv_n = 1.0 / self.lengths[:, None]
        self.actions = np.zeros((n_ports, n_steps), dtype=int)
        self.q_targets = np.zeros((n_ports, n_steps))
        self.advantages = np.zeros_like(self.q_targets)
        self.losses: list[tuple] = []
        self.hiddens = np.zeros((n_steps + 1, n_ports, hidden))
        self.pairs = np.zeros((n_steps + 1, 2, n_ports, hidden))
        self.cells = self.pairs[:, 1]
        self.gates = np.empty((n_steps, n_ports, 4 * hidden))
        self.probs = np.empty((n_ports, n_steps, 2))
        self.values = np.empty((n_ports, n_steps))
        self.dz = np.empty_like(self.gates)
        self.dh_heads = np.empty((n_steps, n_ports, hidden))
        self.tanh_c = np.empty_like(self.dh_heads)
        self.tanh_g = np.empty_like(self.dh_heads)
        self.loss_terms = np.empty((3, n_ports, n_steps))
        self.port_hiddens = np.empty((n_ports, n_steps + 1, hidden))
        self.grads = np.empty((n_ports, sum(math.prod(shape)
                                            for shape in param_shapes(hidden).values())))
        self.grad_views = _views(self.grads, hidden)  # each port's row, by tensor
        product = np.empty((n_ports, 4 * hidden))
        self.cell_steps = [(z, h_prev, c, h, _cell_operands(z, pair, product))
                           for z, pair, h_prev, c, h in zip(
                               self.gates, self.pairs, self.hiddens[:-1], self.cells[1:],
                               self.hiddens[1:])]
        # dh, dc (in tanh_c), dc broadcast over the i, f, g rows, those rows
        # and the o row of dz, the whole dz row and the step's forget gates
        local = self.dz.reshape(n_steps, n_ports, 4, hidden)
        self.reverse_steps = list(zip(self.dh_heads, self.tanh_c, self.tanh_c[:, :, None],
                                      local[:, :, :3], local[:, :, 3], self.dz,
                                      self.gates[:, :, hidden:2 * hidden]))[::-1]

    def check(self, hidden: int) -> None:
        """Refuse parameters of another hidden width than these buffers hold."""
        width = self.gates.shape[2] // 4
        if width != hidden:
            raise LearnerError(f"episode buffers hold hidden width {width}, not {hidden}")


def forward_episode(params: dict, buffers: EpisodeBuffers) -> None:
    """Run every port of the buffers' states from a zero carry as one batch,
    into ``buffers``; the padding steps do not reach a port's earlier steps.
    The time loop steps the cell on contiguous (P, ·) rows of the time-major
    arrays, in place, through the row views the buffers hold.
    """
    buffers.check(hidden_size(params))
    hiddens, cells, gates = buffers.hiddens, buffers.cells, buffers.gates
    hiddens[0] = cells[0] = 0.0
    np.matmul(buffers.states, params["wx"].T, out=gates.transpose(1, 0, 2))  # hoisted
    np.subtract(-params["b"], gates, out=gates)  # -(x @ wx.T + b), as each step takes it
    wh_t = params["wh"].T
    with np.errstate(over="ignore"):  # a gate's logistic may overflow to exactly 0
        for step in buffers.cell_steps:
            _cell_rows(wh_t, *step)
    _heads(params, hiddens[1:].transpose(1, 0, 2), buffers.probs, buffers.values)


def bootstrap_targets(buffers: EpisodeBuffers, rewards: np.ndarray, gamma: float) -> None:
    """One-step targets q_t = r_t + gamma * V(s_{t+1}) and the advantages
    q - V of the pass in ``buffers``, from its (P, T) ``rewards``, into its
    ``q_targets`` and ``advantages``.  The value after a port's last step is
    0, and neither is written past a port's length.  Both are constants for
    the backward pass."""
    values, inside = buffers.values, buffers.inside
    q = np.zeros_like(values)
    np.copyto(q[:, :-1], values[:, 1:], where=inside[:, 1:])  # V(s_{t+1})
    q *= gamma
    q += rewards
    np.copyto(buffers.q_targets, q, where=inside)
    np.subtract(q, values, out=buffers.advantages, where=inside)


def backward(params: dict, buffers: EpisodeBuffers, beta: float) -> np.ndarray:
    """Exact reverse-mode gradient of each port's total loss, value + policy
    - beta * entropy, through the pass in ``buffers``: one flat row per port,
    in port order, laid out by :func:`param_shapes`.  The loss terms are
    computed once, and the gradient and ``buffers.losses``, each port's
    (value, policy, entropy) means over its own steps, both read them.

    The time loop runs backwards over contiguous (P, ·) rows of the
    time-major arrays; it reads the forward pass and leaves it unchanged.
    Padding steps get zero loss gradients, so nothing flows back from them,
    and each port's terms keep its own 1/T_p.  Weight gradients are one
    batched product per episode, over (P, T, ·) views of the time-major
    ``dz``, written into the rows of ``buffers.grads``, which are returned:
    the next pass over the same buffers overwrites them.
    """
    hidden = hidden_size(params)
    buffers.check(hidden)
    n_steps, n_ports, _ = buffers.gates.shape
    inside, inv_n = buffers.inside, buffers.inv_n
    probs = buffers.probs
    log_probs = np.log(np.maximum(probs, LOG_PROB_FLOOR))
    # each step's squared residual, advantage-weighted log-probability and
    # entropy (in nats), stacked so one slice sum per port reads all three
    squares, weighted, entropies = terms = buffers.loss_terms
    np.sum(probs * log_probs, axis=-1, out=entropies)
    np.negative(entropies, out=entropies)
    one_hot = buffers.actions[..., None] == (0, 1)
    schedule = one_hot[..., 0]  # the steps that took action 0
    clamped = np.where(schedule, probs[..., 0], probs[..., 1]) < LOG_PROB_FLOOR
    np.multiply(buffers.advantages, np.where(schedule, log_probs[..., 0], log_probs[..., 1]),
                out=weighted)
    residuals = buffers.values - buffers.q_targets
    with np.errstate(over="ignore"):  # read by the loss log only, where inf is logged
        np.square(residuals, out=squares)
    buffers.losses = []
    # each mean as np.mean takes it, the pairwise sum over n, without its dispatch
    for p, n in enumerate(buffers.lengths.tolist()):
        if clamped[p, :n].any():
            log.warning("policy probability below %.0e clamped in log", LOG_PROB_FLOOR)
        square, weight, entropy = terms[:, p, :n].sum(axis=1).tolist()
        buffers.losses.append((0.5 * (square / n), -(weight / n), entropy / n))
    # policy term: -mean(adv * log pi_taken); clamped probabilities have
    # zero slope, matching the loss definition
    policy_weight = np.where(clamped, 0.0, -buffers.advantages * inv_n)
    d_logits = policy_weight[..., None] * (one_hot - probs)
    # entropy term: -beta * mean(H)
    d_logits += (beta * inv_n)[..., None] * probs * (log_probs + entropies[..., None])
    d_logits *= inside[..., None]
    # value term: 0.5 * mean((q - v)^2)
    d_value = residuals * inv_n * inside

    gates = buffers.gates.reshape(n_steps, n_ports, 4, hidden)
    gi, go = gates[:, :, 0], gates[:, :, 3]
    # dh_heads = d_logits @ wp + d_value * wv, the product staged in tanh_c
    dh_heads, tanh_c = buffers.dh_heads, buffers.tanh_c
    np.matmul(d_logits, params["wp"], out=dh_heads.transpose(1, 0, 2))
    dh_heads += np.multiply(d_value.T[..., None], params["wv"][0], out=tanh_c)
    # dz of each gate is dc (rows i, f, g) or dh (row o) times ``local``: the
    # gate's activation slope times its partner in c = f*c_prev + i*g and
    # h = o*tanh(c); the g slot's slope is 1 - tanh(g)^2, over its scratch.
    # A gate block of ``local`` is a strided view, slower per call than a
    # contiguous array, so g's slope is formed in tanh_g and written once.
    local = buffers.dz.reshape(n_steps, n_ports, 4, hidden)
    np.subtract(1.0, gates, out=local)
    local *= gates
    np.tanh(buffers.cells[1:], out=tanh_c)
    # i's partner tanh g, flipped once from the pairs' -tanh g
    tanh_g = np.negative(buffers.pairs[:-1, 0], out=buffers.tanh_g)
    local[:, :, 0] *= tanh_g
    local[:, :, 1] *= buffers.cells[:-1]  # f's partner c_prev
    slope_g = np.multiply(tanh_g, tanh_g, out=tanh_g)
    np.subtract(1.0, slope_g, out=slope_g)
    np.multiply(slope_g, gi, out=local[:, :, 2])
    local[:, :, 3] *= tanh_c
    dh_to_dc = tanh_c  # go * (1 - tanh(c)^2), over tanh(c)
    dh_to_dc *= tanh_c
    np.subtract(1.0, dh_to_dc, out=dh_to_dc)
    dh_to_dc *= go
    dh_next, dc_next = np.zeros((2, n_ports, hidden))
    wh = params["wh"]
    # turns local into dz step by step, over the buffers' row views
    for dh, dc, dc_ifg, local_ifg, local_o, dz_row, forget in buffers.reverse_steps:
        dh += dh_next
        dc *= dh
        dc += dc_next
        local_ifg *= dc_ifg
        local_o *= dh
        np.dot(dz_row, wh, out=dh_next)
        np.multiply(dc, forget, out=dc_next)

    dz = buffers.dz.transpose(1, 2, 0)  # (P, 4H, T)
    # one port-major copy of the hidden states, whose (T, H) slices of the
    # cell's inputs and outputs are each C-contiguous: BLAS may round a
    # product over a strided operand differently at small widths
    port_hiddens = buffers.port_hiddens
    port_hiddens[...] = buffers.hiddens.transpose(1, 0, 2)
    inputs, outputs = port_hiddens[:, :-1], port_hiddens[:, 1:]
    grads = buffers.grad_views
    np.matmul(dz, buffers.states, out=grads["wx"])
    np.matmul(dz, inputs, out=grads["wh"])
    np.sum(buffers.dz, axis=0, out=grads["b"])
    np.matmul(d_logits.transpose(0, 2, 1), outputs, out=grads["wp"])
    np.sum(d_logits, axis=1, out=grads["bp"])
    np.matmul(d_value[:, None, :], outputs, out=grads["wv"])
    np.sum(d_value, axis=1, keepdims=True, out=grads["bv"])
    if not np.isfinite(buffers.grads).all():
        raise LearnerError("non-finite gradient")
    return buffers.grads


def grad_norm(grads: np.ndarray) -> float:
    """Euclidean norm of one flat gradient; where a finite gradient's squares
    overflow, taken over the gradient divided by its largest magnitude."""
    with np.errstate(over="ignore"):
        square = float(grads @ grads)
    if math.isfinite(square) or not np.all(np.isfinite(grads)):
        return math.sqrt(square)
    peak = float(np.max(np.abs(grads)))
    return peak * grad_norm(grads / peak)  # squares of at most 1


def clipped_delta(grads: np.ndarray, clip_threshold: float) -> np.ndarray:
    """Global norm clipping: scale the whole flat gradient so its norm is at
    most the threshold.  A gradient within it is returned itself, as
    ``grads * 1.0`` would equal it."""
    if clip_threshold <= 0:
        raise LearnerError("clip threshold must be positive")
    norm = grad_norm(grads)
    scale = min(1.0, clip_threshold / norm) if norm > 0 else 1.0
    return grads if scale == 1.0 else grads * scale


class Coordinator:
    """Holds the shared parameters and the Adam state: the float64 vectors
    ``flat``, ``m`` and ``v``, laid out by :func:`param_shapes` at width
    ``hidden``.  ``flat`` is only updated in place."""

    def __init__(self, params: dict):
        self.flat = np.concatenate([np.ravel(params[key]) for key in PARAM_KEYS], dtype=float)
        self.hidden = hidden_size(params)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.step = 0
        self._scratch = np.empty((2, self.flat.size))

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Each tensor as a view into ``flat``, made on access: no copy holds stale views."""
        return _views(self.flat, self.hidden)

    def apply_update(self, delta: np.ndarray, learning_rate: float) -> None:
        """One Adam descent step on the shared parameters using the flat
        ``delta`` as the gradient, in place, through two scratch vectors."""
        self.step += 1
        term, root = self._scratch
        self.m *= ADAM_BETA1
        self.m += np.multiply(delta, 1.0 - ADAM_BETA1, out=term)
        self.v *= ADAM_BETA2
        np.multiply(delta, 1.0 - ADAM_BETA2, out=term)
        term *= delta
        self.v += term
        np.divide(self.m, 1.0 - ADAM_BETA1 ** self.step, out=term)  # m_hat
        term *= learning_rate
        np.divide(self.v, 1.0 - ADAM_BETA2 ** self.step, out=root)  # v_hat
        np.sqrt(root, out=root)
        root += ADAM_EPS
        term /= root
        self.flat -= term


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 2000
    learning_rate: float = 0.001
    gamma: float = 0.9
    beta: float = 0.05
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise LearnerError(f"learning_rate must be a finite positive number, "
                               f"got {self.learning_rate!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise LearnerError(f"beta must be a finite non-negative number, got {self.beta!r}")
        if not (math.isfinite(self.clip_threshold) and self.clip_threshold > 0):
            raise LearnerError(f"clip_threshold must be a finite positive number, "
                               f"got {self.clip_threshold!r}")


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

    Every port decides with the coordinator's parameters, from a zero carry,
    so a model names no port and runs on any site.  A ``ramals-model-v5``
    file is one JSON object holding only what ``execute`` or a resumed
    ``train`` reads:

    - ``format``, ``hidden``, ``risk_value``, the Adam ``step`` and
      ``train_episodes``, as JSON numbers
    - the coordinator's parameters (``coordinator``) and Adam moments
      (``adam_m``, ``adam_v``), each one flat vector laid out by
      :func:`param_shapes`

    Each vector is the base64 text of its little-endian float64 bytes, so a
    file round-trips bit for bit.  ``load`` requires ``hidden`` to be an
    integer > 0 and each vector to decode to exactly the :func:`param_shapes`
    size at that width of finite numbers, naming the vector that does not.
    It rejects a ``risk_value`` outside [0, 1), as ``train`` does, and a
    ``step`` or ``train_episodes`` that is negative or that no float can
    hold.  A file of any other format, ``ramals-model-v1`` to ``-v4``
    included, is rejected with its format named.
    """

    risk_value: float
    coordinator: Coordinator
    train_episodes: int = 0

    @property
    def hidden(self) -> int:
        return self.coordinator.hidden

    def save(self, path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "hidden": self.hidden,
            "risk_value": self.risk_value,
            "step": self.coordinator.step,
            "train_episodes": self.train_episodes,
            "coordinator": _base64(self.coordinator.flat),
            "adam_m": _base64(self.coordinator.m),
            "adam_v": _base64(self.coordinator.v),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SharedModel":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError, an overlong integer, deep nesting
        except (ValueError, RecursionError) as exc:
            raise LearnerError(f"corrupt model file: {exc}") from exc
        if not isinstance(payload, dict):
            raise LearnerError("corrupt model file: not a JSON object")
        if payload.get("format", MODEL_FORMAT) != MODEL_FORMAT:  # a missing one is named below
            raise LearnerError(f"unreadable model file: format {payload['format']!r}, "
                               f"this version reads {MODEL_FORMAT!r} only")
        for field_name in ("format", "hidden", "risk_value", "step", "train_episodes",
                           "coordinator", "adam_m", "adam_v"):
            if field_name not in payload:
                raise LearnerError(f"corrupt model file: missing field {field_name!r}")
        hidden = _number(payload, "hidden", int)
        if hidden <= 0:
            raise LearnerError(f"corrupt model file: field 'hidden' must be > 0, got {hidden}")
        # every vector's size is checked before anything of that size is made
        size = sum(math.prod(shape) for shape in param_shapes(hidden).values())
        flat, m, v = (_vector(payload[name], size, name, hidden)
                      for name in ("coordinator", "adam_m", "adam_v"))
        coordinator = Coordinator(_views(flat, hidden))
        coordinator.m, coordinator.v = m, v
        coordinator.step = _number(payload, "step", int)
        risk_value = _number(payload, "risk_value")
        if not 0.0 <= risk_value < 1.0:  # as train requires
            raise LearnerError(f"corrupt model file: field 'risk_value' must lie in "
                               f"[0, 1), got {risk_value!r}")
        return cls(risk_value=risk_value, coordinator=coordinator,
                   train_episodes=_number(payload, "train_episodes", int))


def _number(payload: dict, field_name: str, kind=float):
    """A model file's scalar field as ``kind``, from a JSON number (for
    ``int``, a JSON integer >= 0 that converts to a float, as Adam's bias
    correction needs of ``step``); a :class:`LearnerError` names the field
    otherwise."""
    value = payload[field_name]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise LearnerError(f"corrupt model file: field {field_name!r} must be "
                           f"{'an integer' if kind is int else 'a number'}, got {value!r}")
    if kind is int and not 0 <= value <= sys.float_info.max:
        raise LearnerError(f"corrupt model file: field {field_name!r} must be a non-negative "
                           f"integer a float can hold, got {value}")
    return kind(value)


def _base64(vector: np.ndarray) -> str:
    """A vector as a model file stores it: base64 of its little-endian float64
    bytes."""
    return base64.b64encode(np.asarray(vector, "<f8").tobytes()).decode("ascii")


def _vector(text, size: int, name: str, hidden: int) -> np.ndarray:
    """A model file's vector of ``size`` finite floats, from the text
    :func:`_base64` writes; a :class:`LearnerError` names the vector
    otherwise."""
    def corrupt(problem: str) -> LearnerError:
        return LearnerError(f"corrupt model file: {name} must be base64 of {size} float64 "
                            f"at hidden width {hidden}, {problem}")

    if not isinstance(text, str):
        raise corrupt(f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise corrupt("not valid base64") from None
    if len(raw) != 8 * size:
        raise corrupt(f"got {len(raw)} bytes")
    values = np.frombuffer(raw, "<f8")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise corrupt(f"entry {bad[0]} is not finite")
    return values.astype(float)


def fit_policy(states, lengths, rewards_by_action, config: TrainConfig,
               initial_model: SharedModel | None = None):
    """The multi-agent training loop on arrays; returns the trained
    :class:`Coordinator` and the [EpisodeLog].  ``states`` is (P, T, 6),
    zero-padded past each port's ``lengths`` (P,), and ``rewards_by_action``
    (2, P, T) holds each step's reward under each action, 0 scheduling.

    The run is one :class:`EpisodeBuffers`: each episode's one batched
    forward and backward pass covers all ports on views of the coordinator's
    ``flat``, then clipping and Adam go port by port.  The backward pass
    returns before Adam writes, so every port's gradient is taken at the
    parameters the episode started from.  Deterministic for a fixed seed: one
    sample stream, one uniform per step in port order, the stream per-port
    draws would give.  Resuming from
    ``initial_model`` continues its parameters, Adam moments, Adam step and
    episode count; the other settings always come from ``config``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    if initial_model is not None:
        if initial_model.hidden != config.hidden:
            raise LearnerError("resume model hidden width does not match config")
        coordinator = initial_model.coordinator
    else:
        coordinator = Coordinator(init_params(config.hidden, rng))
    buffers = EpisodeBuffers(states, lengths, config.hidden)
    inside, actions = buffers.inside, buffers.actions
    if np.shape(rewards_by_action) != (2,) + inside.shape:
        raise LearnerError(f"rewards_by_action must be a {(2,) + inside.shape} array")
    n_draws = int(buffers.lengths.sum())
    params = coordinator.params  # what Adam updates in place
    logs: list[EpisodeLog] = []
    start_episode = initial_model.train_episodes if initial_model is not None else 0
    for episode in range(start_episode, start_episode + config.episodes):
        forward_episode(params, buffers)
        actions[inside] = rng.random(n_draws) >= buffers.probs[inside, 0]  # 0 = schedule
        rewards = np.where(actions == 0, rewards_by_action[0], rewards_by_action[1])
        bootstrap_targets(buffers, rewards, config.gamma)
        ep_reward = 0.0
        for port_rewards, n in zip(rewards, buffers.lengths.tolist()):
            ep_reward += float(np.sum(port_rewards[:n]))  # unpadded: the same pairwise sum
        for grads in backward(params, buffers, config.beta):
            coordinator.apply_update(clipped_delta(grads, config.clip_threshold),
                                     config.learning_rate)
        v_losses, p_losses, entropies = zip(*buffers.losses)
        logs.append(EpisodeLog(episode + 1, ep_reward, float(np.mean(v_losses)),
                               float(np.mean(p_losses)), float(np.mean(entropies))))
    return coordinator, logs


def train(batch: SessionBatch, site_config: SiteConfig, config: TrainConfig, risk_value: float,
          initial_model: SharedModel | None = None):
    """Train on a batch at ``risk_value``; returns (SharedModel, [EpisodeLog]).

    The batch's ports become :func:`fit_policy`'s padded arrays: each port's
    rows of :func:`ramals.mdp.state_matrix` and the rewards of the batch's
    :func:`ramals.mdp.decision_table`, built once per call.
    """
    if len(batch) == 0:
        raise LearnerError("training needs a non-empty batch")
    site_config.port_configs(batch)  # refuses a port the site lacks
    if not 0.0 <= risk_value < 1.0:
        raise LearnerError("risk value must lie in [0, 1)")
    lengths = np.array([rows.stop - rows.start for rows in batch.slices])
    inside = np.arange(lengths.max()) < lengths[:, None]  # each port's steps, in port order
    states = np.zeros(inside.shape + (STATE_DIM,))
    states[inside] = mdp.state_matrix(batch)
    rewards_by_action = np.zeros((2,) + inside.shape)
    rewards_by_action[:, inside] = mdp.decision_table(batch, risk_value).reward
    coordinator, logs = fit_policy(states, lengths, rewards_by_action, config, initial_model)
    return SharedModel(risk_value=float(risk_value), coordinator=coordinator,
                       train_episodes=logs[-1].episode), logs


def training_log_csv(logs) -> str:
    lines = ["episode,cumulative_reward,value_loss,policy_loss,entropy_loss"]
    for entry in logs:
        lines.append(f"{entry.episode},{entry.cumulative_reward!r},"
                     f"{entry.value_loss!r},{entry.policy_loss!r},{entry.entropy!r}")
    return "\n".join(lines) + "\n"
