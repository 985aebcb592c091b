"""Every count and seed that a library entry point takes is refused by one
rule, ``errors._check_count``: a value that is no integer, or a bool, is
refused as such, a value below the least is refused with its bound, and a
numpy int is accepted.  Each refusal comes before anything is drawn or
fitted.  Every real-valued argument is refused by one rule too,
``errors._check_positive``: a value that is no real number, or a bool, is
refused as such, one that is not finite (an int beyond the float range is
not) or lies past its sign bound is refused with that bound, and a numpy
float is accepted without a warning.  An array argument holding text is
refused rather than parsed, ``erm_fit`` refuses an empty or non-finite
dataset, or one whose squares overflow, before it fits, and
``excess_risk`` refuses weights of the wrong shape before it draws."""

import math
import re

import numpy as np
import pytest

from obfgame import (
    Classifier,
    Dataset,
    DpSpec,
    ErmConfig,
    GameParams,
    GeneratorSpec,
    ModelConventions,
    PerturbationSpec,
    best_response_oracle,
    br_curve,
    cascade_simulate,
    erm_fit,
    excess_risk,
    gaussian_epsilon,
    generate_synthetic,
    perturb_dataset,
    reference_classifier,
    scaling_check,
    scaling_experiment,
)
from obfgame import erm, mfg

FIELDS = dict(A_L=2.0, C_L=1.0, A_S=1.0, P_S=2.0, C_S=1.0, rho=1.0, N=100,
              M=50.0)
PARAMS = GameParams(**FIELDS)
GEN, CONFIG = GeneratorSpec(3, 1.0), ErmConfig(rho=0.1)
ZERO = Classifier(np.zeros(3))
DATA = Dataset(np.zeros((3, 3)), np.ones(3))


def _scaling(name):
    sizes = dict(n_records=100, replications=10, n_eval=1000, n_ref=2000,
                 rng_seed=0)
    return lambda value: scaling_experiment(
        GEN, config=CONFIG, aggregates=[0.0, 0.5, 1.0, 2.0],
        **{**sizes, name: value})


# (entry point, parameter, its least value, a call that passes the value as
# that parameter and a valid value for every other)
COUNTS = [
    ("GeneratorSpec", "d", 1, lambda d: GeneratorSpec(d, 1.0)),
    ("generate_synthetic", "n", 2, lambda n: generate_synthetic(n, 3, 1.0, 0)),
    ("generate_synthetic", "rng_seed", 0,
     lambda s: generate_synthetic(10, 3, 1.0, s)),
    ("PerturbationSpec", "rng_seed", 0,
     lambda s: perturb_dataset(DATA, PerturbationSpec(0.0, np.zeros(3), s))),
    ("reference_classifier", "rng_seed", 0,
     lambda s: reference_classifier(GEN, CONFIG, 2000, s)),
    ("reference_classifier", "n_ref", 2,
     lambda n: reference_classifier(GEN, CONFIG, n, 0)),
    ("excess_risk", "n_eval", 1000,
     lambda n: excess_risk(ZERO, ZERO, CONFIG, GEN, n, 0)),
    ("excess_risk", "rng_seed", 0,
     lambda s: excess_risk(ZERO, ZERO, CONFIG, GEN, 1000, s)),
    *[("scaling_experiment", name, least, _scaling(name))
      for name, least in [("n_records", 2), ("replications", 10),
                          ("n_eval", 1000), ("n_ref", 2), ("carriers", 1),
                          ("rng_seed", 0)]],
    ("ErmConfig", "max_iters", 0, lambda m: ErmConfig(rho=0.1, max_iters=m)),
    ("cascade_simulate", "max_rounds", 1,
     lambda m: cascade_simulate(PARAMS, 1.0, 0.0, max_rounds=m)),
    ("cascade_simulate", "rng_seed", 0,
     lambda s: cascade_simulate(PARAMS, 1.0, 0.0, rng_seed=s)),
    ("br_curve", "n_points", 2, lambda n: br_curve(PARAMS, 1.0, n)),
    ("best_response_oracle", "grid_size", 2,
     lambda g: best_response_oracle(PARAMS, 1.0, 0.0, g)),
]
IDS = [f"{where}.{name}" for where, name, _, _ in COUNTS]


class Reached(Exception):
    """A draw or a fit began."""


@pytest.fixture(autouse=True)
def no_draw_or_fit(monkeypatch):
    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr(erm, "_newton", reached)
    monkeypatch.setattr(mfg, "_response", reached)
    monkeypatch.setattr(np.random, "default_rng", reached)


@pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), "3"],
                         ids=["2.5", "True", "float64", "str"])
@pytest.mark.parametrize("where, name, least, call", COUNTS, ids=IDS)
def test_refuses_what_is_no_integer(where, name, least, call, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("where, name, least, call", COUNTS, ids=IDS)
def test_refuses_one_below_the_least(where, name, least, call):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be >= {least}")):
        call(least - 1)


@pytest.mark.parametrize("where, name, least, call", COUNTS, ids=IDS)
def test_accepts_a_numpy_int(where, name, least, call):
    try:
        call(np.int64(least))
    except Reached:  # past every check, at the first draw or fit
        pass


# (entry point, parameter, whether zero is allowed, a call that passes the
# value as that parameter and a valid value for every other)
REALS = [
    *[("GameParams", name, name in ("C_L", "C_S"),
       lambda v, name=name: GameParams(**{**FIELDS, name: v}))
      for name in ("A_L", "C_L", "A_S", "P_S", "C_S", "rho", "M")],
    ("ErmConfig", "rho", False, lambda v: ErmConfig(rho=v)),
    ("ErmConfig", "grad_tolerance", False,
     lambda v: ErmConfig(rho=0.1, grad_tolerance=v)),
    ("ModelConventions", "c_g", False, lambda v: ModelConventions(c_g=v)),
    ("ModelConventions", "c_p", False, lambda v: ModelConventions(c_p=v)),
    ("ModelConventions", "privacy_exponent", False,
     lambda v: ModelConventions(privacy_exponent=v)),
    ("DpSpec", "sensitivity", False, lambda v: DpSpec(0.1, sensitivity=v)),
    ("DpSpec", "delta", False, lambda v: DpSpec(v)),
    ("GeneratorSpec", "separation", True, lambda v: GeneratorSpec(3, v)),
    ("PerturbationSpec", "sigma_L", True,
     lambda v: PerturbationSpec(v, np.zeros(3), 0)),
    ("scaling_experiment", "aggregates[0]", True,
     lambda v: scaling_experiment(GEN, 100, CONFIG, [v, 0.5, 1.0, 2.0],
                                  replications=10, rng_seed=0, n_eval=1000,
                                  n_ref=2000)),
    ("gaussian_epsilon", "total_std", True,
     lambda v: gaussian_epsilon(DpSpec(0.1), v)),
    ("scaling_check", "sigma_L", True,
     lambda v: scaling_check(DpSpec(0.1), [(v, 1.0)])),
    ("scaling_check", "sigma_S", True,
     lambda v: scaling_check(DpSpec(0.1), [(1.0, v)])),
    ("cascade_simulate", "seed_fraction", True,
     lambda v: cascade_simulate(PARAMS, 1.0, v)),
]
REAL_IDS = [f"{where}.{name}" for where, name, _, _ in REALS]


def _bound(zero):
    return "non-negative" if zero else "positive"


@pytest.mark.parametrize("value", [True, np.True_, "1", None],
                         ids=["True", "np.True_", "str", "None"])
@pytest.mark.parametrize("where, name, zero, call", REALS, ids=REAL_IDS)
def test_refuses_what_is_no_real_number(where, name, zero, call, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a real number, got {value!r}")):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("where, name, zero, call", REALS, ids=REAL_IDS)
def test_refuses_what_is_not_finite(where, name, zero, call, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and {_bound(zero)}, got {value}")):
        call(value)


@pytest.mark.parametrize("where, name, zero, call", REALS, ids=REAL_IDS)
def test_refuses_one_past_the_sign_bound(where, name, zero, call):
    value = -math.ulp(0.0) if zero else 0.0
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and {_bound(zero)}, got {value}")):
        call(value)


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("where, name, zero, call", REALS, ids=REAL_IDS)
def test_accepts_a_numpy_float(where, name, zero, call, value):
    try:
        result = call(value)
    except Reached:  # past every check, at the first draw or fit
        return
    # a constructor keeps the value it was given
    assert getattr(result, name, value) == value


# (entry point, array parameter, a call that passes text in that array)
TEXT_ARRAYS = [
    ("Dataset", "features", lambda: Dataset([["1", "2"]], [1.0])),
    ("Dataset", "labels", lambda: Dataset([[1.0, 2.0]], ["1"])),
    ("PerturbationSpec", "sigma_S_per_user",
     lambda: PerturbationSpec(0.0, ["1", "2"], 0)),
    ("Classifier", "weights", lambda: Classifier(["1", "2"])),
]


@pytest.mark.parametrize("where, name, call", TEXT_ARRAYS,
                         ids=[f"{w}.{n}" for w, n, _ in TEXT_ARRAYS])
def test_refuses_text_in_an_array(where, name, call):
    with pytest.raises(ValueError, match=f"{name} must hold numbers"):
        call()


def test_dataset_refuses_zero_rows():
    with pytest.raises(ValueError, match="features must have at least one"):
        Dataset(np.empty((0, 3)), [])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_erm_fit_refuses_a_non_finite_feature(value):
    # before the first iteration: the fixture's _newton is never reached
    data = Dataset([[value, 1.0], [0.5, 2.0]], [1, -1])
    with pytest.raises(ValueError, match="features must be finite"):
        erm_fit(data, CONFIG)


@pytest.mark.parametrize("value", [1e155, 1e200])
def test_erm_fit_refuses_features_whose_squares_overflow(value):
    # finite, but the first column's sum of squares is not: the fit ran all
    # max_iters iterations on overflowing products
    data = Dataset([[value, 1.0], [0.5, 2.0]], [1, -1])
    with pytest.raises(ValueError, match=re.escape(
            "features must have a finite sum of squares in each column")):
        erm_fit(data, CONFIG)


@pytest.mark.parametrize("weights", [[[1.0], [2.0]], 1.0, np.zeros((2, 2))],
                         ids=["column", "scalar", "matrix"])
def test_classifier_refuses_weights_not_1d(weights):
    with pytest.raises(ValueError, match="weights must be a 1-D array"):
        Classifier(weights)


@pytest.mark.parametrize("sizes, named", [
    ((2, 3), "f_d"), ((2, 2), "f_d"), ((3, 2), "f_star")],
    ids=["f_d-short", "both-short", "f_star-short"])
def test_excess_risk_refuses_weights_without_d_entries(sizes, named):
    # before the evaluation draw: the fixture's default_rng is never reached
    f_d, f_star = (Classifier(np.zeros(size)) for size in sizes)
    with pytest.raises(ValueError, match=re.escape(
            f"{named}.weights must have gen.d=3 entries, got 2")):
        excess_risk(f_d, f_star, CONFIG, GEN, 1000, 0)
