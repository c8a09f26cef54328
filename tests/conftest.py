import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# derandomize: every run draws the same examples, so a green run can be
# reproduced; an example a run has found is kept as an explicit case
settings.register_profile(
    "ci", deadline=None, max_examples=40, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny_world():
    """4x4 grid, 3 years, with the default monotone bias applied."""
    from dclimba import synth

    cfg = synth.SynthConfig(height=4, width=4, years=3, seed=7)
    ref, attrs = synth.gen_reference(cfg)
    gcm = synth.apply_known_bias(ref, cfg)
    return cfg, ref, gcm, attrs


@pytest.fixture(scope="session")
def tiny_graph(tiny_world):
    from dclimba import gridio

    _, ref, gcm, _ = tiny_world
    return gridio.select_neighbors(gcm, 16, (0, 730))


def rng(seed=0) -> np.random.Generator:
    return np.random.default_rng(seed)
