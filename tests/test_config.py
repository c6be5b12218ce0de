import pytest

from moeprune.calibration import CalibrationConfig
from moeprune.distill import KDConfig
from moeprune.errors import ConfigError
from moeprune.model import ModelConfig
from moeprune.training import TrainConfig


@pytest.mark.parametrize("cls,kwargs,named", [
    (KDConfig, {"learning_rate": 0.0}, "kd.learning_rate"),
    (KDConfig, {"epochs": -1}, "kd.epochs"),
    (KDConfig, {"lambda_mode": "big"}, "kd.lambda_mode"),
    (TrainConfig, {"batch_size": 0}, "train.batch_size"),
    (TrainConfig, {"steps": 2.0}, "train.steps"),
    (CalibrationConfig, {"nsamples": 0}, "calibration.nsamples"),
    (ModelConfig, {"d_model": "16"}, "model.d_model"),
])
def test_library_caller_meets_the_check(cls, kwargs, named):
    with pytest.raises(ConfigError, match=named):
        cls(**kwargs)
