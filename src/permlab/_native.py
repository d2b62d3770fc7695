"""The compiled kernels: one shared library built from every ``_*.c`` here.

The library is compiled with ``cc`` on first use into ~/.cache/permlab and
loaded with ``ctypes``. The cache is append-only: each library is named by
what it was built from and nothing here deletes one, so a library once found
stays in place. Every caller reaches its kernel through ``kernel``, by name,
which caches what it finds, and runs its own Python code when that is None:
``permanent_ryser`` and ``acceptance_table`` ask on every call, a
``ChainSampler`` and a ``BufferedDraws`` once, when they are made. So
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
# leaves out in _ryser.c: on a 2-vCPU Xeon with gcc 12, its paired subset
# loop (n <= 24) runs 1.2-1.3 times as fast as at -O2 on random matrices
# of density 7/8 at n = 16-24 and 1.7-1.8 times at 1/4, and its loop over
# four and five vectors (n = 25 to 34) 11-14 % faster on the all-ones
# matrices at n = 30 and 34. The walk and refill kernels run as fast as at
# -O2, walk_states within 2 %.
# No -ffast-math and no -march=native, and -ffp-contract=off: the kernels'
# floating-point results must round exactly as the Python code they are
# tested against. Today the only such results are the thresholds of
# acceptance_thresholds in _walk.c: libm's exp, then a product by 2^53 and a
# ceiling, both exact, which no fused multiply-add could change; the flag
# stays for any expression added later.
_CC_ARGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


def library_path() -> Path:
    """The shared library built from the ``_*.c`` sources, compiling it on first use.

    It lives in ~/.cache/permlab (mode 0700), named by the sha256 of the
    sources (names and contents, in link order: _walk.c, then the others
    in name order), the compiler arguments and the machine type. A build
    writes a temporary file and renames it into place, so processes that
    build at once never load a partial library. No build deletes another
    library, so checkouts that share the cache never rebuild by turns.
    """
    # Imported here so that importing permlab stays as cheap as it can be.
    import hashlib
    import platform

    if os.name != "posix":
        raise OSError("the compiled kernels are built only on POSIX systems")
    # _walk.c first, so that where the walk kernels sit, and with that their
    # speed, does not move with the code size of the other kernels.
    sources = sorted(Path(__file__).parent.glob("_*.c"), key=lambda path: (path.name != "_walk.c", path.name))
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
    return library


@functools.cache
def library():
    """The loaded shared library, or None when it cannot be built or loaded.

    Replacing this function before the first ``kernel`` lookup (with one that
    returns None, say) switches every caller to its Python code;
    ``load_library`` stays the real loader.
    """
    return load_library()


def load_library():
    """The shared library, built if need be and loaded afresh, or None when
    it cannot be built or loaded."""
    # PyDLL keeps the interpreter lock through each call, so no other
    # thread can refill or free a buffer while a kernel reads it.
    try:
        return ctypes.PyDLL(str(library_path()))
    except (OSError, subprocess.SubprocessError):
        return None


@functools.cache
def kernel(name: str, *argtypes):
    """The library's function ``name``, returning nothing and taking
    ``argtypes``, or None when the library cannot be built or loaded or, on
    this machine, has no such function (``ryser`` needs SSE2). Cached per
    name and argtypes, None included; ``kernel.__wrapped__`` looks up afresh.
    """
    lib = library()
    if lib is None:
        return None
    try:
        function = lib[name]
    except AttributeError:
        return None
    function.restype = None
    function.argtypes = argtypes
    return function


def pin(buffer) -> ctypes.c_char:
    """The first byte of a writable buffer, which stays exported while this lives."""
    return ctypes.c_char.from_buffer(buffer)


def address(buffer) -> int:
    """Address of a writable buffer's first byte; 0 when it is empty."""
    return ctypes.addressof(pin(buffer)) if len(buffer) else 0
