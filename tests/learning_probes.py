"""Learning probes: small tasks whose best policy is known, trained through
:func:`ramals.learner.fit_policy`, in the style of bsuite's basic probes
(Osband et al., 2020, "Behaviour Suite for Reinforcement Learning").

Every probe is a contextual bandit on four ports of 50, 37, 44 and 21 steps,
so every pass runs over padding steps.  Each step has six uniform features
in [0, 1).  The best action is to schedule (action 0) when feature 0 of the
step ``lag`` steps back on the same port is at least 0.5, and to queue
otherwise.  It pays ``scale`` and the other action pays 0.  The first
``lag`` steps of a port have no best action: both actions pay 0 there, and
they are not scored.

A probe's score is the trained policy's argmax agreement with the best
action, over the scored steps of a held-out draw of the same task.

Run as a script, this trains every probe at the default ``TrainConfig``
(2000 episodes, hidden width 64) at seeds 0-2 and prints each score.  It
exits 1 when a probe listed in ``FULL_SIZE_FLOORS`` scores below its floor
at any seed:

    PYTHONPATH=src python3 tests/learning_probes.py
"""

import sys
from dataclasses import dataclass, replace

import numpy as np

from ramals.learner import EpisodeBuffers, TrainConfig, fit_policy, forward_episode

LENGTHS = (50, 37, 44, 21)


@dataclass(frozen=True)
class Probe:
    name: str
    lag: int = 0          # how many steps back on its port the cue is
    scale: float = 1.0    # what the best action pays

    def draw(self, rng: np.random.Generator):
        """One draw of the task: zero-padded (P, T, 6) states, (P,) lengths,
        (2, P, T) rewards by action and each step's best action, -1 where a
        step has none."""
        lengths = np.array(LENGTHS)
        inside = np.arange(lengths.max()) < lengths[:, None]
        states = np.where(inside[..., None], rng.uniform(0.0, 1.0, inside.shape + (6,)), 0.0)
        best = np.full(inside.shape, -1)
        best[:, self.lag:] = np.where(states[:, :inside.shape[1] - self.lag, 0] >= 0.5, 0, 1)
        best[~inside] = -1
        rewards = np.stack([self.scale * (best == action) for action in (0, 1)])
        return states, lengths, rewards, best


PROBES = (Probe("bandit"), Probe("memory-1", lag=1), Probe("memory-3", lag=3),
          Probe("reward-x100", scale=100.0))

# Floors a probe must reach at full size, at every seed; a probe missing
# here is reported but not asserted.
FULL_SIZE_FLOORS = {"bandit": 0.85, "memory-1": 0.8}


def agreement(params: dict, states, lengths, best) -> float:
    """Share of the scored steps where the policy's more likely action is
    the best one; a tie schedules, as the execution rule does."""
    buffers = EpisodeBuffers(states, lengths, params["wh"].shape[1])
    forward_episode(params, buffers)
    chosen = np.where(buffers.probs[..., 0] >= 0.5, 0, 1)
    scored = best >= 0
    return float(np.mean(chosen[scored] == best[scored]))


def score(probe: Probe, config: TrainConfig) -> float:
    """Train on one draw of the probe's task and score on another, both
    drawn from streams of ``config.seed``."""
    states, lengths, rewards, _ = probe.draw(np.random.default_rng([config.seed, 0]))
    coordinator, _ = fit_policy(states, lengths, rewards, config)
    states, lengths, _, best = probe.draw(np.random.default_rng([config.seed, 1]))
    return agreement(coordinator.params, states, lengths, best)


def main() -> int:
    failed = []
    for probe in PROBES:
        scores = [score(probe, replace(TrainConfig(), seed=seed)) for seed in range(3)]
        floor = FULL_SIZE_FLOORS.get(probe.name)
        verdict = "reported" if floor is None else "ok" if min(scores) >= floor else "FAILED"
        print(f"{probe.name}: held-out agreement {', '.join(f'{s:.3f}' for s in scores)} "
              f"at seeds 0-2; floor {floor}: {verdict}", flush=True)
        if verdict == "FAILED":
            failed.append(probe.name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
