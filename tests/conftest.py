import pytest

from permlab import chain


@pytest.fixture
def python_walk(monkeypatch):
    """Run ChainSampler.walk on its Python loop, as when the kernel cannot load."""
    monkeypatch.setattr(chain, "_walk_kernel", lambda: None)


@pytest.fixture(params=["compiled", "python"])
def walk_kernel(request, monkeypatch):
    """Each of walk's two kernels in turn; the compiled one skips where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
    elif chain._walk_kernel() is None:
        pytest.skip("the compiled walk kernel cannot be built or loaded here")
    return request.param
