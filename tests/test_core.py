import math
import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from blockbeta.asymptotics import efron_check
from blockbeta.cli import ExperimentConfig, replicate
from blockbeta.core import (
    BetaParams,
    BlockStructure,
    as_int,
    predict_rate,
    volume_deficit_rate,
)
from blockbeta.hull import verify_hull
from blockbeta.metacube import (
    cap_content_full_mc,
    verify_blaschke_petkantschin_2d,
    verify_polyspherical,
    verify_reduction,
)
from blockbeta.sampler import BetaBallLaw, RngStream, sample_block_beta, verify_sampler


def test_as_int_takes_integral_numbers_of_at_least_least():
    assert as_int(np.int64(3), "x") == 3 and as_int(1e5, "x", least=1) == 100_000
    assert as_int(0, "x", least=0) == 0 and as_int(-7.0, "x") == -7
    assert all(type(as_int(x, "x", least=2)) is int for x in (2, np.int32(2), 2.0))
    # never truncated, never below the floor the caller names
    for x, least in ((2.5, None), (True, None), ("3", None), (Fraction(3), None),
                     (math.nan, None), (0, 1), (-1.0, 0), (1, 2), (False, 0)):
        floor = "" if least is None else f" >= {least}"
        with pytest.raises(ValueError, match=re.escape(f"x must be an integer{floor}, got {x!r}")):
            as_int(x, "x", least)


_BS, _BP = BlockStructure((2, 1)), BetaParams.uniform(2)
# every public entry point that takes a count: (call, the count's name, its floor)
COUNT_ENTRY_POINTS = {
    "BlockStructure": (lambda x, gen: BlockStructure((2, x)), "block dimension", 1),
    "BetaBallLaw": (lambda x, gen: BetaBallLaw(x, 0.0), "dimension", 1),
    "config_reps": (lambda x, gen: ExperimentConfig.from_dict({"block_dims": [2], "reps": x}),
                    "reps", 1),
    "sample_block_beta": (lambda x, gen: sample_block_beta(_BS, _BP, gen, x), "size", 0),
    "cap_content_full_mc": (lambda x, gen: cap_content_full_mc(
        _BS, _BP, [1.0, 0.0, 0.0], 0.0, x, gen), "n_samples", 1),
    "efron_check": (lambda x, gen: efron_check(_BS, 10, reps=x, rng=gen), "reps", 2),
    "efron_check_n": (lambda x, gen: efron_check(_BS, x, reps=2, rng=gen), "n", 5),
    "replicate": (lambda x, gen: replicate(_BS, _BP, x, 0, 0), "n", 4),
    "verify_sampler": (lambda x, gen: verify_sampler(x, rng=gen), "n_samples", 1),
    "verify_hull": (lambda x, gen: verify_hull(x, rng=gen), "trials", 1),
    "verify_reduction_trials": (lambda x, gen: verify_reduction(
        _BS, _BP, trials=x, n_samples=1000, rng=gen), "trials", 1),
    "verify_reduction_n_samples": (lambda x, gen: verify_reduction(
        _BS, _BP, trials=2, n_samples=x, rng=gen), "n_samples", 1),
    "verify_polyspherical": (lambda x, gen: verify_polyspherical(_BS, n_samples=x, rng=gen),
                             "n_samples", 1),
    "verify_blaschke_petkantschin_2d": (lambda x, gen: verify_blaschke_petkantschin_2d(
        n_samples=x, rng=gen), "n_samples", 1),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "below_floor"])
@pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
def test_every_count_is_refused_by_the_one_rule_before_the_first_draw(entry, bad):
    call, what, least = COUNT_ENTRY_POINTS[entry]
    x = {"fraction": 2.5, "bool": True, "below_floor": least - 1}[bad]
    gen = RngStream(3, 0).generator()
    state = gen.bit_generator.state
    message = f"{what} must be an integer >= {least}, got {x!r}"
    # from_dict's ConfigError prefixes the rule's message
    with pytest.raises(ValueError, match=f"^(invalid config: )?{re.escape(message)}$"):
        call(x, gen)
    assert gen.bit_generator.state == state


def test_block_structure_basics():
    bs = BlockStructure((2, 1))
    assert bs.m == 2
    assert bs.dim == 3
    bs = BlockStructure((np.int64(2), np.int32(1), 3.0))
    assert bs.dims == (2, 1, 3) and all(type(d) is int for d in bs.dims)


def test_block_structure_rejects_bad_dims():
    with pytest.raises(ValueError):
        BlockStructure(())
    with pytest.raises(ValueError, match="block dimension must be an integer >= 1, got 0"):
        BlockStructure((2, 0))
    # never truncated: 2.5 is not 2, True is not 1
    for dims in ((2.5,), (2, True), (1, 1.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            BlockStructure(dims)


def test_beta_params_validation():
    for betas in ((-1,), (0, Fraction(-3, 2)), (-1.0, 0.5)):
        with pytest.raises(ValueError, match="beta weights must be finite and exceed -1"):
            BetaParams(betas)
    with pytest.raises(ValueError):
        BetaParams(())
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            BetaParams((0, beta))
    assert BetaParams.uniform(3).as_floats() == (0.0, 0.0, 0.0)


# --- rate prediction -------------------------------------------------

UNIFORM_CASES = [
    # dims -> (exponent, log_power) under beta = 0, where k_i = d_i
    ((2,), Fraction(1, 3), 0),
    ((1, 1), Fraction(0), 1),
    ((3,), Fraction(1, 2), 0),
    ((2, 1), Fraction(1, 3), 0),
    ((1, 1, 1), Fraction(0), 2),
    ((4,), Fraction(3, 5), 0),
    ((3, 1), Fraction(1, 2), 0),
    ((2, 2), Fraction(1, 3), 1),
    ((2, 1, 1), Fraction(1, 3), 0),
    ((1, 1, 1, 1), Fraction(0), 3),
]


@pytest.mark.parametrize("dims,expo,lp", UNIFORM_CASES)
def test_predict_rate_uniform_table(dims, expo, lp):
    pred = predict_rate(BlockStructure(dims), BetaParams.uniform(len(dims)))
    assert pred.exponent == pytest.approx(float(expo), abs=1e-15)
    assert pred.log_power == lp


def test_predict_rate_weighted_collapse():
    # any weights on 1-d blocks leave k_i = 1: pure log growth
    bs = BlockStructure((1, 1, 1))
    bp = BetaParams((Fraction(1, 2), 2, 0))
    pred = predict_rate(bs, bp)
    assert pred.k == (1.0, 1.0, 1.0)
    assert pred.exponent == 0.0
    assert pred.log_power == 2


def test_predict_rate_exact_rational_tie():
    # (3 + 1)/(1 + 1) == (2 + 0)/(0 + 1): a tie floats would have to hunt for
    pred = predict_rate(BlockStructure((3, 2)), BetaParams((1, 0)))
    assert max(pred.k) == 2.0
    assert pred.exponent == pytest.approx(1.0 / 3.0)
    assert pred.log_power == 1


def test_predict_rate_float_tie_tolerance():
    pred = predict_rate(BlockStructure((3, 2)), BetaParams((1.0, 0.0)))
    assert pred.log_power == 1


def test_predict_rate_rejects_negative_beta():
    with pytest.raises(ValueError):
        predict_rate(BlockStructure((2,)), BetaParams((-0.5,)))


def test_predict_rate_mismatched_lengths():
    with pytest.raises(ValueError):
        predict_rate(BlockStructure((2, 1)), BetaParams((0,)))


def test_volume_deficit_rate():
    assert volume_deficit_rate(BlockStructure((4,))) == (-2.0 / 5.0, 0)
    expo, lp = volume_deficit_rate(BlockStructure((2, 2, 1)))
    assert expo == pytest.approx(-2.0 / 3.0)
    assert lp == 1


dims_st = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple)
betas_st = st.one_of(
    st.integers(0, 4),
    st.fractions(min_value=0, max_value=4),
)


@given(dims=dims_st, data=st.data())
def test_predict_rate_k_range_and_exponent(dims, data):
    betas = tuple(data.draw(betas_st) for _ in dims)
    pred = predict_rate(BlockStructure(dims), BetaParams(betas))
    # k_i interpolates between 1 (beta -> inf) and d_i (beta = 0)
    for k, d in zip(pred.k, dims):
        assert 1.0 - 1e-12 <= k <= d + 1e-12
    assert 0.0 <= pred.exponent < 1.0
    # one log factor per block tied with the largest k, past the first
    assert 0 <= pred.log_power < len(dims)


@given(dims=dims_st, data=st.data())
def test_predict_rate_permutation_invariant(dims, data):
    betas = tuple(data.draw(betas_st) for _ in dims)
    perm = data.draw(st.permutations(range(len(dims))))
    a = predict_rate(BlockStructure(dims), BetaParams(betas))
    b = predict_rate(
        BlockStructure(tuple(dims[i] for i in perm)),
        BetaParams(tuple(betas[i] for i in perm)),
    )
    assert a.exponent == pytest.approx(b.exponent, abs=1e-15)
    assert a.log_power == b.log_power
