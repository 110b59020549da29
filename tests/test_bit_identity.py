"""The array quantiles and divisors give, bit for bit, the floats of the
pure-``math`` scalar reference in ``scalar_reference``.

Printed divisors and the oracle's seeded Monte Carlo digits depend on
every bit, so equality is compared on the int64 view of the floats.
"""

import numpy as np
import pytest

import scalar_reference as ref
from summarysd.estimators import CorrectionOrder, delta_hat, epsilon_hat, eta_hat, xi_hat
from summarysd.specfun import (
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_quantile_vec,
)

NS = np.arange(2, 200_001)
CUTOFFS = (2, 50)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def blom():
    """The reference's asymptotic divisors over ``NS``, which its
    ``xi_hat`` and ``eta_hat`` return unchanged above the cutoff."""
    ns = NS.tolist()
    return (np.array([ref.blom_range_divisor(n) for n in ns]),
            np.array([ref.blom_iqr_divisor(n) for n in ns]))


@pytest.fixture(scope="module")
def probabilities():
    """Seeded p over (0, 1), with both tails and some below 1e-300."""
    rng = np.random.default_rng(20261018)
    p = np.concatenate([
        rng.uniform(0.0, 1.0, 60_000),
        10.0 ** -rng.uniform(1.0, 320.0, 20_000),
        1.0 - 10.0 ** -rng.uniform(1.0, 15.9, 19_997),
        [5e-324, 1e-310, 1e-300],
    ])
    assert p.size == 100_000 and ((p > 0.0) & (p < 1.0)).all() and (p < 1e-300).sum() > 50
    return p


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_xi_hat(blom, cutoff):
    expected = blom[0].copy()
    expected[:cutoff - 1] = [ref.xi_hat(n, cutoff) for n in range(2, cutoff + 1)]
    assert np.array_equal(bits(xi_hat(NS, cutoff)), bits(expected))
    # The scalar view is the same function.
    for n in (2, 3, 50, 51, 1_000, 199_999):
        assert bits(xi_hat(n, cutoff)) == bits(ref.xi_hat(n, cutoff))


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("order", list(CorrectionOrder))
def test_eta_hat(blom, order, cutoff):
    first = 3 if order is CorrectionOrder.SECOND else 2  # n = 2 has no second-order divisor
    expected = blom[1][first - 2:].copy()
    if order is not CorrectionOrder.NONE:
        expected[:cutoff - first + 1] = [
            ref.eta_hat(n, order, cutoff) for n in range(first, cutoff + 1)
        ]
    assert np.array_equal(bits(eta_hat(NS[first - 2:], order, cutoff)), bits(expected))
    for n in (first, 50, 51, 1_000, 199_999):
        assert bits(eta_hat(n, order, cutoff)) == bits(ref.eta_hat(n, order, cutoff))
    if order is CorrectionOrder.SECOND:
        with pytest.raises(ValueError, match="got 2$"):
            eta_hat(NS, order, cutoff)


def test_corrections():
    ns = NS.tolist()
    assert np.array_equal(bits(delta_hat(NS)), bits([ref.delta_hat(n) for n in ns]))
    first = CorrectionOrder.FIRST
    assert np.array_equal(bits(epsilon_hat(NS, first)), bits([ref.epsilon_hat(n, first) for n in ns]))
    second = CorrectionOrder.SECOND
    assert np.array_equal(bits(epsilon_hat(NS[1:49], second)),
                          bits([ref.epsilon_hat(n, second) for n in range(3, 51)]))


@pytest.mark.parametrize("f, f_ref", [(std_normal_pdf, ref.std_normal_pdf),
                                       (std_normal_cdf, ref.std_normal_cdf)], ids=["pdf", "cdf"])
def test_density_and_cdf(f, f_ref):
    rng = np.random.default_rng(20261018)
    z = np.concatenate([rng.normal(0.0, 3.0, 50_000), rng.uniform(-40.0, 40.0, 10_000)])
    expected = bits([f_ref(x) for x in z.tolist()])
    assert np.array_equal(bits(f(z)), expected)
    assert np.array_equal(bits([f(x) for x in z[::50].tolist()]), expected[::50])


def test_polished_quantile(probabilities):
    expected = bits([ref.std_normal_quantile(p) for p in probabilities.tolist()])
    assert np.array_equal(bits(std_normal_quantile(probabilities)), expected)
    some = probabilities[::50]
    assert np.array_equal(bits([std_normal_quantile(p) for p in some.tolist()]), expected[::50])


def test_monte_carlo_quantile(probabilities):
    # The Blom positions of the range add tail arguments at which np.log
    # and libm's log differ.
    p = np.concatenate([probabilities, (NS - 0.375) / (NS + 0.25)])
    assert np.array_equal(bits(std_normal_quantile_vec(p)), bits(ref.std_normal_quantile_vec(p)))


SWITCHES = (0.075, 0.925, float(np.exp(-25.0)), 1.0 - float(np.exp(-25.0)))


@pytest.mark.parametrize("p", [
    *(x for s in SWITCHES for x in (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0))),
    1.0 - 2.0 ** -53,
    5e-324,
])
def test_quantiles_at_branch_switches(p):
    """PPND16 changes form at |p - 0.5| = 0.425 and at r = 5, where
    -log(p) = 25; seeded p need not land beside either switch."""
    p = float(p)
    assert bits(std_normal_quantile(p)) == bits(ref.std_normal_quantile(p))
    p = np.array([p])
    assert np.array_equal(bits(std_normal_quantile_vec(p)), bits(ref.std_normal_quantile_vec(p)))
