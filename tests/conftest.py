import pytest

from permlab import _native


@pytest.fixture
def swap_kernels(monkeypatch):
    """Switch compiled kernels off, or swap in fakes, by name, for one test.

    After ``swap_kernels(walk_states=None, ryser=spy)`` the one lookup of
    compiled code, ``_native.kernel``, finds no ``walk_states`` and finds
    ``spy`` for ``ryser``, and looks up every other name as before. Later
    calls add to the earlier ones.
    """
    swapped = {}
    lookup = _native.kernel

    def kernel(name, *argtypes):
        return swapped[name] if name in swapped else lookup(name, *argtypes)

    monkeypatch.setattr(_native, "kernel", kernel)
    return swapped.update


@pytest.fixture(params=["states", "compiled", "python"])
def walk_kernel(request, swap_kernels):
    """Each of walk's three kernels in turn: ``walk_states``, which runs up
    to n = chain.STATE_WALK_LIMIT (``walk`` above it), the general compiled
    ``walk`` at every n, and the Python kernel. The compiled ones skip where
    they cannot load."""
    name = {"states": "walk_states", "compiled": "walk"}.get(request.param)
    if name is not None and _native.kernel(name) is None:
        pytest.skip(f"the {request.param} walk kernel cannot be built or loaded here")
    if request.param != "states":
        swap_kernels(walk_states=None)
    if request.param == "python":
        swap_kernels(walk=None)
    return request.param


@pytest.fixture(params=["compiled", "python"])
def ryser_kernel(request, swap_kernels):
    """Each of permanent_ryser's two kernels in turn; the compiled one skips
    where it cannot load."""
    if request.param == "python":
        swap_kernels(ryser=None)
    elif _native.kernel("ryser") is None:
        pytest.skip("the compiled Ryser kernel cannot be built or loaded here")
    return request.param
