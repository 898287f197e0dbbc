"""Balance laws: the spatial means of n, sigma and a obey the scheme's mean
identities exactly, at the lags the step uses.

verify.mean_balance_ratios states the three identities and their a-priori
bounds, and gives, for each, the largest ratio of gap to bound over the
steps; chks verify reports the same ratios as the invariants suite's
*_mean_balance rows. Each identity holds when its ratio is at most 1. Every
source term of the three updates appears in them, so dropping or
mis-lagging one, such as the nutrient source c_0, breaks an identity by that
term's mean.
"""

from pathlib import Path

import pytest

from chks.config import load_config
from chks.state import FORWARD_FIELDS, solve_forward
from chks.verify import mean_balance_ratios

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module", params=[
    ("verify.cfg", "centered"), ("verify.cfg", "upwind"),
    ("optimize_inverse_crime.cfg", "centered"), ("optimize_inverse_crime.cfg", "upwind"),
], ids=lambda p: f"{p[0]}-{p[1]}")
def ratios(request):
    config, scheme = request.param
    cfg = load_config(CONFIG_DIR / config)
    # c_0 is nonzero in both configs, so its term is tested.
    assert cfg.model.c_0 != 0
    traj, _ = solve_forward(cfg.grid, cfg.model, cfg.init, cfg.u0, cfg.T, cfg.nt,
                            s_stab=cfg.s_stab, flux_scheme=scheme, keep=FORWARD_FIELDS)
    return mean_balance_ratios(traj, cfg.model, cfg.u0)


def test_nutrient_mean_balance(ratios):
    assert ratios["nutrient"] <= 1.0, ratios


def test_signal_mean_balance(ratios):
    assert ratios["signal"] <= 1.0, ratios


def test_vasculature_mean_balance(ratios):
    assert ratios["vasculature"] <= 1.0, ratios
