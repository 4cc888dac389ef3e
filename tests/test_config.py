import pytest

from fallfact.config import ENV_PRECISION, RunConfig, from_env, resolve
from fallfact.errors import InputFormatError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.precision_bits == 128
    assert cfg.eps == 1e-12
    assert cfg.n_max == 10000


def test_validation():
    with pytest.raises(InputFormatError):
        RunConfig(precision_bits=52)
    with pytest.raises(InputFormatError):
        RunConfig(eps=0.0)
    with pytest.raises(InputFormatError):
        RunConfig(n_max=3)


def test_env_override_and_precedence():
    assert from_env({}).precision_bits == 128
    assert from_env({ENV_PRECISION: "256"}).precision_bits == 256
    with pytest.raises(InputFormatError):
        from_env({ENV_PRECISION: "lots"})
    with pytest.raises(InputFormatError):
        from_env({ENV_PRECISION: "40"})
    # explicit flags beat the environment
    cfg = resolve(from_env({ENV_PRECISION: "256"}), precision_bits=192,
                  eps=1e-20, n_max=500)
    assert (cfg.precision_bits, cfg.eps, cfg.n_max) == (192, 1e-20, 500)
