import shutil
import stat

import pytest

from permlab import _native, chain, exact, rng


def kernel_lookups():
    """Each caller's uncached lookup of its compiled kernel."""
    return [chain._walk_kernel.__wrapped__, exact._ryser_kernel.__wrapped__, rng._refill_kernels.__wrapped__]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_compiled_kernels_build_and_load_from_one_library(tmp_path, monkeypatch):
    # Where a compiler exists, a broken build must not fall back to the
    # Python loops unnoticed. A fresh home makes this a real build.
    # The build deletes the libraries of older sources and leaves the
    # temporary file of a build that may still be running.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(_native, "library", _native.load_library)
    cache = tmp_path / ".cache" / "permlab"
    cache.mkdir(mode=0o700, parents=True)
    for name in ("permlab-" + "0" * 32 + ".so", "tmp1234.partial"):
        (cache / name).write_bytes(b"")
    assert all(lookup() is not None for lookup in kernel_lookups())
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    library = _native.library_path()
    assert sorted(path.name for path in cache.iterdir()) == sorted([library.name, "tmp1234.partial"])


def test_build_flags_keep_floating_point_results_exact():
    # The unit draws of _rng.c are bit-identical to numpy's only while the
    # compiler neither fuses nor reorders floating-point operations.
    assert "-ffp-contract=off" in _native._CC_ARGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"):
        assert flag not in _native._CC_ARGS


def test_kernels_are_none_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    home = tmp_path / "home"
    home.write_text("a file, not a directory")
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setattr(_native, "library", _native.load_library)
    assert [lookup() for lookup in kernel_lookups()] == [None, None, None]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
def test_a_library_deleted_before_its_load_is_built_again(tmp_path, monkeypatch):
    # Another checkout's build deletes the libraries of other sources, and
    # may do so between library_path finding this one and the load.
    monkeypatch.setenv("HOME", str(tmp_path))
    library_path = _native.library_path
    found = []

    def deleted_once_found():
        path = library_path()
        if not found:
            path.unlink()
        found.append(path)
        return path

    monkeypatch.setattr(_native, "library_path", deleted_once_found)
    assert _native.load_library() is not None
    assert len(found) == 2
    assert found[1].exists()
