import pytest

from momentprop import _kernels, presets


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
    """Unbind `_kernels.BACKEND` and the entry points, so that the next read of one chooses the backend again."""
    for name in _kernels._BOUND:
        vars(_kernels).pop(name, None)


@pytest.fixture
def python_twins(monkeypatch):
    """A call that switches the kernel backend to the Python twins, as when no C compiler is found, until teardown."""

    def switch():
        monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
        unbind_kernels()
        assert _kernels.BACKEND == "python"

    yield switch
    monkeypatch.undo()
    unbind_kernels()
    _kernels.BACKEND  # binds the backend again, now with the compiler found, so later tests find C bound
