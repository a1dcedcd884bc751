import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from blockbeta.core import (
    BetaParams,
    BlockStructure,
    predict_rate,
    volume_deficit_rate,
)


def test_block_structure_basics():
    bs = BlockStructure((2, 1))
    assert bs.m == 2
    assert bs.dim == 3


def test_block_structure_rejects_bad_dims():
    with pytest.raises(ValueError):
        BlockStructure(())
    with pytest.raises(ValueError):
        BlockStructure((2, 0))


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams((-1,))
    with pytest.raises(ValueError):
        BetaParams(())
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
