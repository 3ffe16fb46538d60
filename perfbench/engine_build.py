"""Build the compiled engine tier from the measured tree's own C source.

A ``.so`` left over from another commit would measure the wrong code, so
the benchmark never trusts an extension it did not build itself.  The
build goes to ``.bench_build/enginec-<key>/`` where ``<key>`` hashes the
C source, ``setup.py`` and the interpreter, so a checkout builds once and
every later run reuses it.  The source tree itself is left untouched
(no ``--inplace``): :func:`activate` puts the build first on the
``repro._engine`` package path before the engine is probed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

C_SOURCE = Path("src/repro/_engine/_enginec.c")


class BuildError(RuntimeError):
    """The extension did not build; the run must not fall back silently."""


def _key(root: Path) -> str:
    h = hashlib.sha256()
    for rel in (C_SOURCE, Path("setup.py")):
        h.update(rel.as_posix().encode())
        h.update((root / rel).read_bytes())
    h.update(sys.version.encode())
    h.update(str(sysconfig.get_config_var("EXT_SUFFIX")).encode())
    return h.hexdigest()[:16]


def _built_so(lib_dir: Path) -> Path | None:
    found = sorted((lib_dir / "repro" / "_engine").glob("_enginec*.so"))
    return found[0] if found else None


def has_c_source(root: Path) -> bool:
    return (root / C_SOURCE).is_file()


def ensure_built(root: Path, build_root: Path) -> Path:
    """Return the package directory holding a fresh ``_enginec`` build.

    Builds on first use per source hash; raises :class:`BuildError` when
    the compiler fails (``setup.py`` marks the extension optional, so a
    failed build exits 0 and only the missing ``.so`` tells).
    """

    lib_dir = build_root / f"enginec-{_key(root)}"
    so = _built_so(lib_dir)
    if so is not None:
        return so.parent
    build_root.mkdir(parents=True, exist_ok=True)
    tmp = build_root / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "setup.py",
                "-q",
                "build_ext",
                "--build-lib",
                str(tmp / "lib"),
                "--build-temp",
                str(tmp / "obj"),
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=800,
        )
        if _built_so(tmp / "lib") is None:
            raise BuildError(
                f"_enginec did not build (exit {proc.returncode}):\n{proc.stdout[-4000:]}"
            )
        try:
            os.rename(tmp / "lib", lib_dir)
        except OSError:
            if _built_so(lib_dir) is None:  # not a lost race with another run
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    so = _built_so(lib_dir)
    assert so is not None
    return so.parent


def activate(pkg_dir: Path | None) -> None:
    """Make ``repro._engine`` import ``_enginec`` from *pkg_dir* first.

    Must run before anything resolves an engine tier (the probe is lazy
    and one-shot).  ``None`` leaves the package path alone.
    """

    import repro._engine as engine_pkg

    if pkg_dir is not None:
        engine_pkg.__path__.insert(0, str(pkg_dir))


def loaded_from() -> str | None:
    """Path of the ``_enginec`` module the probe imported, if any."""

    mod = sys.modules.get("repro._engine._enginec")
    return getattr(mod, "__file__", None)
