import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run the slow checks: the engine-vs-f_{p,q} signature sweep "
                          "over every Gamma(p,q) with p <= 30, the numeric route for mu_3 O, "
                          "and the numeric oracle near its floor on I and mu_3 O")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
