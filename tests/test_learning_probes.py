"""The learner learns: the bandit probe of ``learning_probes`` at a small
size, trained through ``learner.fit_policy``.  ``tests/learning_probes.py``
runs every probe at full size as a script.

At this size (width 8, 200 episodes, learning rate 0.01) the bandit's
held-out agreement read 0.74-0.95 at seeds 0-3, and 0.04-0.07 with the
advantage's sign flipped, so the floor sits well clear of both.
"""

import pytest

from learning_probes import PROBES, score
from ramals.learner import TrainConfig

BANDIT = PROBES[0]
FLOOR = 0.6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bandit_probe_learns(seed):
    config = TrainConfig(episodes=200, hidden=8, learning_rate=0.01, seed=seed)
    assert score(BANDIT, config) >= FLOOR
