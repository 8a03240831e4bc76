import pytest
from importlib import resources

from leolift.scenario import load_scenario
from leolift.spacecraft import SizingParams, generate_dataset, surrogate_target
from leolift.surrogate import fit_linear_regression, train_relu_network


@pytest.fixture(scope="session")
def lunar_text() -> str:
    return resources.files("leolift").joinpath("data", "lunar_campaign.json").read_text()


@pytest.fixture(scope="session")
def lunar(lunar_text):
    return load_scenario(lunar_text)


@pytest.fixture(scope="session")
def params() -> SizingParams:
    return SizingParams()


@pytest.fixture(scope="session")
def dataset51(params):
    return generate_dataset(params)


@pytest.fixture(scope="session")
def net0(params, dataset51):
    """Reference network trained with seed 0 on the default grid."""
    return train_relu_network(dataset51, 0,
                              target_fn=lambda v: surrogate_target(params, v))


@pytest.fixture(scope="session")
def linreg51(dataset51):
    return fit_linear_regression(dataset51)
