"""Package warnings are attributed to the caller's line, not to a koopgen frame."""

import numpy as np
import pytest

from koopgen import coarse_grain, control, generator, models, sysid
from koopgen.dictionaries import Monomials


def _ou_sample(m):
    points = models.sample_uniform([[-1.0, 1.0]], m, seed=3)
    return models.exact_sample_set(models.ornstein_uhlenbeck(), points)


def _plane_sample(m):
    points = models.sample_uniform([[-1.0, 1.0]] * 2, m, seed=3)
    return models.exact_sample_set(models.double_well_2d(), points)


# three points cannot resolve six basis functions; a duplicated column leaves a
# design rank deficient; delta = 1e6 removes every term
CALLS = {
    "identify-rank": lambda: sysid.identify(Monomials(1, 5), _ou_sample(3)),
    "fit_surrogates-rank": lambda: control.fit_surrogates(
        Monomials(1, 5), [0.0], [_ou_sample(3)]
    ),
    "coarse_gedmd-rank": lambda: generator.gedmd_stochastic(
        Monomials(1, 5),
        coarse_grain.reduced_sample(coarse_grain.linear_map(np.eye(2)[:1]), _plane_sample(3)),
    ),
    "hard_threshold-rank": lambda: sysid.hard_threshold(
        np.repeat(np.arange(1.0, 6.0)[:, None], 2, axis=1), np.arange(5.0), 0.0
    ),
    "identify-threshold": lambda: sysid.identify(Monomials(1, 3), _ou_sample(50), delta=1e6),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_warnings_name_the_callers_line(call):
    with pytest.warns(UserWarning) as records:
        call()
    assert records and all(record.filename == __file__ for record in records)
