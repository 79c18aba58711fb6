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


@pytest.fixture
def python_twins(monkeypatch):
    """A call that switches the kernel backend to the Python twins, as when no C compiler is found, until teardown."""

    def switch():
        monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
        _kernels._backend.cache_clear()
        assert _kernels.BACKEND == "python"

    yield switch
    monkeypatch.undo()
    _kernels._backend.cache_clear()
