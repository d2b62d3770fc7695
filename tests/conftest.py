import pytest

from permlab import chain, exact


@pytest.fixture(params=["compiled", "python"])
def walk_kernel(request, monkeypatch):
    """Each of walk's two kernels in turn; the compiled one skips where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    elif chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    return request.param


@pytest.fixture(params=["compiled", "python"])
def ryser_kernel(request, monkeypatch):
    """Each of permanent_ryser's two kernels in turn; the compiled one skips
    where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(exact, "_ryser_kernel", lambda: None)
    elif exact._ryser_kernel() is None:
        pytest.skip("the compiled Ryser kernel cannot be built or loaded here")
    return request.param
