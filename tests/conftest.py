import pytest

from permlab import chain, exact


@pytest.fixture(params=["states", "compiled", "python"])
def walk_kernel(request, monkeypatch):
    """Each of walk's three kernels in turn: ``walk_states``, which runs up
    to n = chain.STATE_WALK_LIMIT (``walk`` above it), the general compiled
    ``walk`` at every n, and the Python kernel. The compiled ones skip where
    they cannot load."""
    loader = {"states": chain._state_walk_kernel, "compiled": chain._walk_kernel}.get(request.param)
    if loader is not None and loader() is None:
        pytest.skip(f"the {request.param} walk kernel cannot be built or loaded here")
    if request.param != "states":
        monkeypatch.setattr(chain, "_state_walk_kernel", lambda: None)
    if request.param == "python":
        monkeypatch.setattr(chain, "_walk_kernel", lambda: None)
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
