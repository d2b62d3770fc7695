import pytest

from permlab import chain, exact


@pytest.fixture
def python_walk(monkeypatch):
    """Run ChainSampler.walk on its Python kernel, as when the compiled one cannot load."""
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def walk_kernel(request, monkeypatch):
    """Each of walk's two kernels in turn; the compiled one skips where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    elif chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    return request.param


@pytest.fixture
def python_ryser(monkeypatch):
    """Run permanent_ryser on its Python loop, as when the kernel cannot load."""
    monkeypatch.setattr(exact, "_ryser_kernel", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def ryser_kernel(request, monkeypatch):
    """Each of permanent_ryser's two kernels in turn; the compiled one skips
    where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(exact, "_ryser_kernel", lambda: None)
    elif exact._ryser_kernel() is None:
        pytest.skip("the compiled Ryser kernel cannot be built or loaded here")
    return request.param
