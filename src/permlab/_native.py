"""The compiled kernels: one shared library built from every ``_*.c`` here.

The library is compiled with ``cc`` on first use into ~/.cache/permlab and
loaded with ``ctypes``. Each caller keeps a cached function over ``kernel``,
asks it on every call and runs its own Python code when it returns None, so
nothing is compiled or loaded at import and a host without a compiler still
runs, only slower.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

# How the sources are compiled. -O3 for the loop transformations that -O2
# leaves out, loop peeling most of all, in the short per-subset loops of
# _ryser.c: on a 2-vCPU Xeon with gcc 12, perfbench's exact-ryser takes
# 0.0168 reference seconds against 0.0192 at -O2 and 0.0179 at -O2
# -fpeel-loops, and the walk and refill kernels run as fast as at -O2.
# No -ffast-math and no -march=native, and -ffp-contract=off: the kernels'
# floating-point results must round exactly as the Python code they are
# tested against. Today the only such result is the unit draw of _rng.c,
# one product by a power of two that no fused multiply-add could change;
# the flag stays for any expression added later.
_CC_ARGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


def library_path() -> Path:
    """The shared library built from the ``_*.c`` sources, compiling it on first use.

    It lives in ~/.cache/permlab (mode 0700), named by the sha256 of the
    sources (names and contents, in name order), the compiler arguments and
    the machine type. A build writes a temporary file and renames it into
    place, so processes that build at once never load a partial library,
    and then deletes the libraries of other sources from the cache.
    """
    # Imported here so that importing permlab stays as cheap as it can be.
    import hashlib
    import platform

    if os.name != "posix":
        raise OSError("the compiled kernels are built only on POSIX systems")
    sources = sorted(Path(__file__).parent.glob("_*.c"))
    if not sources:
        # cc would link an empty library without complaint.
        raise OSError("no kernel sources next to the package")
    digest = hashlib.sha256(
        b"\0".join(
            [
                *(path.name.encode() + b"\0" + path.read_bytes() for path in sources),
                " ".join(_CC_ARGS).encode(),
                platform.machine().encode(),
            ]
        )
    ).hexdigest()
    cache = Path(os.path.expanduser("~/.cache/permlab"))
    if not cache.is_absolute():
        raise OSError("no home directory for the kernel cache")
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise OSError(f"{cache} is writable by other users")
    library = cache / f"permlab-{digest[:32]}.so"
    if library.exists():
        return library
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    fd, partial = tempfile.mkstemp(suffix=".partial", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CC_ARGS, "-o", partial, *map(str, sources), "-lm"],
            capture_output=True,
            check=True,
            timeout=300,
        )
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    # Delete the libraries of other sources: this checkout never loads them
    # again. A process that loaded one keeps its mapping, and a checkout with
    # those sources rebuilds once. A *.partial file may belong to a build
    # still running, so it stays.
    for stale in cache.glob("permlab-*.so"):
        if stale != library:
            stale.unlink(missing_ok=True)
    return library


@functools.cache
def library():
    """The loaded shared library, or None when it cannot be built or loaded.

    Replacing this function (with one that returns None, say) switches every
    caller to its Python code; ``load_library`` stays the real loader.
    """
    return load_library()


def load_library():
    """The shared library, built if need be and loaded afresh, or None when
    it cannot be built or loaded. A library that another checkout's build
    deletes before it is loaded is built again, once."""
    # PyDLL keeps the interpreter lock through each call, so no other
    # thread can refill or free a buffer while a kernel reads it.
    try:
        path = library_path()
        try:
            return ctypes.PyDLL(str(path))
        except OSError:
            if path.exists():
                raise
        return ctypes.PyDLL(str(library_path()))
    except (OSError, subprocess.SubprocessError):
        return None


def kernel(name: str, restype, *argtypes):
    """The library's function ``name`` with the given signature, or None
    when the library cannot be built or loaded."""
    lib = library()
    if lib is None:
        return None
    function = lib[name]
    function.restype = restype
    function.argtypes = argtypes
    return function


def pin(buffer) -> ctypes.c_char:
    """The first byte of a writable buffer, which stays exported while this lives."""
    return ctypes.c_char.from_buffer(buffer)


def address(buffer) -> int:
    """Address of a writable buffer's first byte; 0 when it is empty."""
    return ctypes.addressof(pin(buffer)) if len(buffer) else 0
