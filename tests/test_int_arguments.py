"""The integer-argument rule: an int, not a bool, at least some least value.

Every public integer argument below is refused by the one rule, with a
TypeError naming the type it got, or a ValueError naming the least value.
"""

import pytest

from skewchar import (
    SkewMatrix,
    SymmetricMatrix,
    TransitionMatrix,
    certify_positive,
    expand_skewchar,
    random_skew,
    sign_probe,
)

_I2 = SymmetricMatrix.identity(2)

# (site, call of the argument, its name in messages, its least value)
_SITES = [
    ("SkewMatrix", lambda x: SkewMatrix(x), "dimension", 1),
    ("random_skew-dimension", lambda x: random_skew(x, 0), "dimension", 1),
    ("random_skew-seed", lambda x: random_skew(2, x), "seed", 0),
    ("random_skew-bound", lambda x: random_skew(2, 0, x), "bound", 1),
    ("sign_probe-trials", lambda x: sign_probe(_I2, x), "trials", 1),
    ("sign_probe-seed", lambda x: sign_probe(_I2, 1, seed=x), "seed", 0),
    ("sign_probe-bound", lambda x: sign_probe(_I2, 1, bound=x), "bound", 1),
    ("expand_skewchar", lambda x: expand_skewchar(_I2, max_dim=x), "max_dim", 1),
    ("certify_positive", lambda x: certify_positive(_I2, max_dim=x), "max_dim", 1),
    ("SymmetricMatrix.identity", lambda x: SymmetricMatrix.identity(x), "dimension", 1),
    ("SymmetricMatrix.zero", lambda x: SymmetricMatrix.zero(x), "dimension", 1),
    ("TransitionMatrix.identity", lambda x: TransitionMatrix.identity(x), "dimension", 1),
    ("TransitionMatrix.permutation", lambda x: TransitionMatrix.permutation([x]),
     "permutation entry", 0),
]


@pytest.mark.parametrize("call, value, error, message", [
    pytest.param(call, value, error, message.format(name=name, least=least),
                 id=f"{site}-{case}")
    for site, call, name, least in _SITES
    for case, value, error, message in [
        ("float", 1.5, TypeError, "{name} must be an int, got float"),
        ("bool", True, TypeError, "{name} must be an int, got bool"),
        ("str", "3", TypeError, "{name} must be an int, got str"),
        ("below", least - 1, ValueError, "{name} must be at least {least}"),
    ]
])
def test_integer_argument_is_refused_by_the_one_rule(call, value, error, message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error and str(info.value) == message
