import pytest

from gibbsrwm.checks import (BATTERY, determinism, increment_moments,
                             mc_vs_quad_acceptance_uniform, run_battery)


def test_fast_battery_passes():
    results = run_battery(["determinism", "increment_moments", "c_identity"],
                          seed=2024)
    assert all(r.passed for r in results)
    assert [r.name for r in results] == ["determinism", "increment_moments",
                                         "c_identity"]


def test_determinism_negative_control():
    assert determinism(3, corrupt=True).passed is False
    assert determinism(3, corrupt=False).passed is True


def test_corrupt_flag_routed_through_battery():
    results = run_battery(["determinism"], seed=5, corrupt_determinism=True)
    assert results[0].passed is False


def test_increment_moments_standalone():
    assert increment_moments(7).passed


def test_empty_battery_rejected():
    with pytest.raises(ValueError):
        run_battery([], seed=0)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_battery(["spectral_gap"], seed=0)


def test_detailed_balance_small_run():
    from gibbsrwm.checks import detailed_balance

    assert detailed_balance(11, steps=60_000).passed


def test_registry_names_are_callable():
    assert set(BATTERY) == {"mc_vs_quad_acceptance",
                            "mc_vs_quad_acceptance_uniform", "detailed_balance",
                            "c_identity", "determinism",
                            "exact_sampler_moments", "increment_moments"}


def test_uniform_acceptance_check():
    result = mc_vs_quad_acceptance_uniform(11)
    assert result.passed, result.detail
    assert result.detail.count("quad=") == 2
