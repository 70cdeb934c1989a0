import dataclasses

import numpy as np
import pytest

from etcsim.presets import no_blackout_scenario, sec6_plant, sec6_scenario
from etcsim.sim import _Engine, run
from etcsim.triggers import TriggerConfig, resolve_lookahead, trigger_constants


@pytest.fixture(scope="session")
def ref_plant():
    """Reference 2x2 plant with vd0 for x0 = (6, -4)."""
    return sec6_plant()


@pytest.fixture(scope="session")
def ref_config(ref_plant):
    return TriggerConfig(lookahead=resolve_lookahead(ref_plant, 0.1),
                         sigma=0.06, sigma1=0.8)


@pytest.fixture(scope="session")
def ref_constants(ref_plant, ref_config):
    """``(gamma1, delay floors, T_M)`` of the reference plant for p = 1..8."""
    return trigger_constants(ref_plant, ref_config, 8)


@pytest.fixture(scope="session")
def blackout_scn():
    return sec6_scenario()


@pytest.fixture(scope="session")
def blackout_trace(blackout_scn):
    return run(blackout_scn)


@pytest.fixture(scope="session")
def blackout_engine(blackout_scn):
    """Engine at the initial state of sec6; never run, so tests may copy it."""
    return _Engine(blackout_scn)


@pytest.fixture(scope="session")
def blackout_rule(blackout_engine):
    return blackout_engine.rule


@pytest.fixture(scope="session")
def clear_channel_rule(clear_channel_scn):
    return clear_channel_scn.rule


@pytest.fixture(scope="session")
def clear_channel_scn():
    return no_blackout_scenario()


@pytest.fixture(scope="session")
def clear_channel_engine(clear_channel_scn):
    """Engine at the initial state of the clear-channel preset; never run."""
    return _Engine(clear_channel_scn)


@pytest.fixture(scope="session")
def clear_channel_trace(clear_channel_scn):
    return run(clear_channel_scn)


@pytest.fixture(scope="session")
def sliced_at():
    """Re-solve oracle for ``realtime_bound``: the window re-anchored at t in its first slot."""
    def sliced(problem, t):
        return dataclasses.replace(problem, theta=np.r_[t, problem.theta[1:]])
    return sliced


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
