import hypothesis
import numpy as np
import pytest
from numpy.polynomial import Polynomial as NumpyPolynomial

from nonauto import builtin, polynomial
from nonauto.sequences import escape_radius_search

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def min_cheb():
    return builtin("minimal_chebyshev")


@pytest.fixture(scope="session")
def min_cheb_radius(min_cheb):
    return escape_radius_search(min_cheb, 100)


@pytest.fixture(scope="session")
def classical_cheb():
    return builtin("classical_chebyshev")


@pytest.fixture(scope="session")
def classical_cheb_radius(classical_cheb):
    return escape_radius_search(classical_cheb, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def compose():
    """p o q by numpy's own composition (P(Q) for numpy polynomials), an oracle
    independent of nonauto; for maps without a power-of-two scale."""
    def compose(p, q):
        assert p.scale2 == q.scale2 == 0
        return polynomial(*NumpyPolynomial(p.coeffs)(NumpyPolynomial(q.coeffs)).coef)
    return compose
