import pytest

from nleig import SolverOptions, alpha_critical, verify


@pytest.fixture(scope="session")
def crit():
    """Critical-coupling searches (the slowest computations).

    At the verify tolerance the search comes from the verify criteria's own
    cache, so a session runs each search once.
    """

    def get(q, tol=verify._CRIT_TOL):
        if tol == verify._CRIT_TOL:
            return verify._crit(q)
        return alpha_critical(q, tol, SolverOptions())

    return get
