import os
import shutil
import stat

import pytest

from permlab import Matrix, _native, chain, exact, rng


def kernel_lookups():
    """Each caller's uncached lookup of its compiled kernel."""
    return [
        chain._walk_kernel.__wrapped__,
        chain._state_walk_kernel.__wrapped__,
        chain._threshold_kernel.__wrapped__,
        exact._ryser_kernel.__wrapped__,
        rng._refill_kernels.__wrapped__,
    ]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_compiled_kernels_build_and_load_from_one_library(tmp_path, monkeypatch):
    # Where a compiler exists, a broken build must not fall back to the
    # Python loops unnoticed. A fresh home makes this a real build.
    # The build deletes nothing: every library of other sources stays, as
    # does the temporary file of a build that may still be running.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_native, "library", _native.load_library)
    cache = tmp_path / ".cache" / "permlab"
    cache.mkdir(mode=0o700, parents=True)
    others = [f"permlab-{digit * 32}.so" for digit in "0123"]
    for age, name in enumerate(reversed(others), 1):
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (1e9 - age * 3600,) * 2)
    (cache / "tmp1234.partial").write_bytes(b"")
    assert all(lookup() is not None for lookup in kernel_lookups())
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    library = _native.library_path()
    kept = [library.name, *others, "tmp1234.partial"]
    assert sorted(path.name for path in cache.iterdir()) == sorted(kept)


def test_build_flags_keep_floating_point_results_exact():
    # The acceptance thresholds of _walk.c are bit-identical to Python's
    # only while the compiler neither fuses nor reorders floating-point
    # operations.
    assert "-ffp-contract=off" in _native._CC_ARGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"):
        assert flag not in _native._CC_ARGS


def test_kernels_are_none_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.write_text("a file, not a directory")
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setattr(_native, "library", _native.load_library)
    assert [lookup() for lookup in kernel_lookups()] == [None] * 5


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_checkouts_sharing_the_cache_keep_each_others_libraries(tmp_path, monkeypatch):
    # A parent and its change build from different sources (here, different
    # arguments) into one cache; each finds its library again unrebuilt.
    monkeypatch.setenv("HOME", str(tmp_path))
    plain = _native._CC_ARGS
    other = (*plain, "-DPERMLAB_OTHER_CHECKOUT")
    monkeypatch.setattr(_native, "_CC_ARGS", other)
    first = _native.library_path()
    built = first.stat().st_mtime_ns
    monkeypatch.setattr(_native, "_CC_ARGS", plain)
    second = _native.library_path()
    assert first != second
    monkeypatch.setattr(_native, "_CC_ARGS", other)
    assert _native.load_library() is not None
    assert first.stat().st_mtime_ns == built
    assert sorted(tmp_path.joinpath(".cache", "permlab").iterdir()) == sorted([first, second])


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_a_library_built_without_sse2_has_no_ryser_and_the_other_kernels(tmp_path, monkeypatch):
    # _ryser.c is empty where the compiler does not define __SSE2__ (off
    # x86-64); the walk and refill kernels still load, and permanent_ryser
    # runs its Python loop.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_CC_ARGS", (*_native._CC_ARGS, "-U__SSE2__"))
    monkeypatch.setattr(_native, "library", _native.load_library)
    walk, walk_states, thresholds, ryser, refill = (lookup() for lookup in kernel_lookups())
    assert ryser is None
    assert all(kernel is not None for kernel in (walk, walk_states, thresholds, refill))
    monkeypatch.setattr(exact, "_ryser_kernel", exact._ryser_kernel.__wrapped__)
    assert exact.permanent_ryser(Matrix.from_rows([[1] * 5] * 5)) == 120
