import pytest

from momentprop import _kernels, presets

import reference


@pytest.fixture(scope="session")
def dubins_reduced():
    return presets.compile_dubins(reduced=True)


@pytest.fixture(scope="session")
def dubins_unreduced():
    return presets.compile_dubins(reduced=False)


@pytest.fixture(scope="session")
def dubins_system():
    return presets.dubins_system()


@pytest.fixture(scope="session")
def dubins_spec():
    return presets.dubins_spec()


def unbind_kernels():
    """Unbind `_kernels.BACKEND` and the entry points, so that the next read of one loads the C module again."""
    for name in _kernels._BOUND:
        vars(_kernels).pop(name, None)


def use_kernel_twins(monkeypatch):
    """Set the twins from `reference` in place of `_kernels`' six entry points, until `monkeypatch` undoes it."""
    twins = (reference.run_steps_python, reference.risk_bound_python, reference.steer_python,
             reference.nearest_python, reference.trig_moments_python, reference.record_moments_python)
    for name, twin in zip(_kernels._BOUND[1:], twins, strict=True):
        monkeypatch.setattr(_kernels, name, twin)
