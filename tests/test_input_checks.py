"""Library input checks refuse NaN: each is written so that a NaN fails
it (``not x > 0``) and raises ParameterError, rather than returning nan or
False or ending in some later, unrelated error.  Empty, zero-sized and
misshapen inputs are refused by the same error."""

import numpy as np
import pytest

from ionlab import classical, drop, hartree, hf, tf, tfw
from ionlab.errors import ParameterError

NAN = float("nan")


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        pytest.param(tf.TFParams, (), {"z": NAN, "n_electrons": 1.0}, id="TFParams-z"),
        pytest.param(tf.TFParams, (), {"z": 1.0, "n_electrons": NAN}, id="TFParams-N"),
        pytest.param(
            tf.TFParams, (), {"z": 1.0, "n_electrons": 1.0, "c_tf": NAN}, id="TFParams-c_tf"
        ),
        pytest.param(tfw.TFWParams, (), {"z": NAN}, id="TFWParams-z"),
        pytest.param(tfw.TFWParams, (), {"z": 1.0, "c_w": NAN}, id="TFWParams-c_w"),
        pytest.param(tfw.TFWParams, (), {"z": 1.0, "c_tf": NAN}, id="TFWParams-c_tf"),
        pytest.param(tfw.excess_charge_sweep, ([1.0, NAN],), {}, id="excess_charge_sweep"),
        pytest.param(drop.ball_energy, (NAN,), {}, id="ball_energy"),
        pytest.param(drop.Ball, (), {"center": np.zeros(3), "radius": NAN}, id="Ball"),
        pytest.param(drop.binding_gap_lower_bound, (NAN, 0.5), {}, id="binding_gap-m"),
        pytest.param(drop.binding_gap_lower_bound, (1.0, NAN), {}, id="binding_gap-s"),
        pytest.param(drop.f_of_s, (NAN,), {}, id="f_of_s"),
        pytest.param(drop.f_of_s, ([0.5, NAN],), {}, id="f_of_s-array"),
        pytest.param(drop.mc_ball_coulomb, (NAN, 10), {}, id="mc_ball_coulomb"),
        pytest.param(drop.nonexistence_certificate, (NAN,), {}, id="nonexistence_certificate"),
        pytest.param(
            classical.PointConfig, ([[NAN, 0, 0], [1, 0, 0], [0, 1, 0]],), {}, id="PointConfig-nan"
        ),
        pytest.param(
            classical.PointConfig, ([[np.inf, 0, 0], [1, 0, 0]],), {}, id="PointConfig-inf"
        ),
        pytest.param(hf.build_sgauss_basis, (NAN, [1.0, 2.0]), {}, id="sgauss-z"),
        pytest.param(hf.build_sgauss_basis, (1.0, [1.0, NAN]), {}, id="sgauss-exponent"),
        pytest.param(hartree.hartree_energy_direct, (2.0, NAN), {}, id="hartree_direct-z"),
        pytest.param(hartree.hartree_energy_direct, (NAN, 1.0), {}, id="hartree_direct-N"),
        pytest.param(drop.BallConfiguration, ((),), {}, id="BallConfiguration-empty"),
        pytest.param(drop.mc_ball_coulomb, (1.0, 0), {}, id="mc_ball_coulomb-no-pairs"),
        pytest.param(drop.half_space_average, (np.zeros(3),), {}, id="half_space_average-z0"),
        pytest.param(hf.random_basis, (np.random.default_rng(0), 0), {}, id="random_basis-d0"),
        pytest.param(classical.PointConfig, (np.ones((2, 2)),), {}, id="PointConfig-shape"),
    ],
)
def test_nan_input_raises_parameter_error(fn, args, kwargs):
    with pytest.raises(ParameterError):
        fn(*args, **kwargs)
