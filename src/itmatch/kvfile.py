"""Plain-text "key: value" files and the manifest-and-blob container.

One dialect serves dataset manifests, checkpoints, and CLI config files:
UTF-8 lines of ``key: value``, blank lines and ``#`` comments allowed,
duplicate keys rejected.  Values keep everything after the first colon.

A container is a directory holding a ``manifest`` in this dialect plus
binary blobs ``<stem>.bin``.  The manifest opens with the container's
``format`` and ``version`` and ends with one ``checksum_<stem>`` (sha256,
hex) per blob.  ``write_container`` and ``Container`` are the only code
that writes or reads one; datasets and checkpoints are both containers.
``replacing`` writes a single text file through a temporary name too.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path

from .errors import DataError

MANIFEST_FILE = "manifest"


def reads_back(text: str) -> bool:
    # parse_kv_text splits lines with str.splitlines and strips keys and values
    return "".join(text.splitlines()) == text == text.strip()


def format_kv(pairs) -> str:
    """``key: value`` lines of (key, value) pairs, refusing one parse_kv_text would not return unchanged."""
    lines = []
    for key, value in pairs:
        key = str(key)
        value = str(value)
        if ":" in key or key.startswith("#") or not key or not reads_back(key):
            raise DataError(f"invalid key {key!r}")
        if not reads_back(value):
            raise DataError(f"value for {key!r} has a newline or other line break, or whitespace at either end")
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def parse_kv_text(text: str, source: str = "<text>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataError(f"{source}:{lineno}: empty key")
        if key in out:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_kv(path: str | os.PathLike) -> dict[str, str]:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text (byte offset {err.start})") from None
    return parse_kv_text(text, source=str(path))


def refuse_other_format(path: str | os.PathLike, fmt: str) -> None:
    """Raise DataError if ``<path>/manifest`` parses and names a format other
    than `fmt`; a damaged one may be overwritten, so it can be regenerated."""
    manifest = os.path.join(path, MANIFEST_FILE)
    try:
        found = read_kv(manifest).get("format", fmt)
    except (OSError, DataError):
        return
    if found != fmt:
        raise DataError(f"{manifest}: holds format {found!r}; refusing to replace it with {fmt!r}")


def write_container(
    path: str | os.PathLike, fmt: str, version: int, fields: list, blobs: dict[str, bytes]
) -> dict[str, str]:
    """Write each blob as ``<stem>.bin``, then the manifest; return the checksums.

    The (key, value) ``fields`` go between the format header and the
    checksum lines.  A container of another format is refused, and the
    manifest built, and so validated, before any file is opened.  Every
    file is written under a temporary name first; then the old manifest
    is deleted and the files renamed into place, the manifest last.  A
    write that fails part way leaves the old container or no manifest,
    never a manifest over other blobs.  The directory itself is kept,
    since other files may share it.
    """
    refuse_other_format(path, fmt)
    checksums = {stem: hashlib.sha256(blob).hexdigest() for stem, blob in blobs.items()}
    text = format_kv(
        [("format", fmt), ("version", version), *fields]
        + [(f"checksum_{stem}", digest) for stem, digest in checksums.items()]
    )
    os.makedirs(path, exist_ok=True)
    files = {os.path.join(path, f"{stem}.bin"): blob for stem, blob in blobs.items()}
    manifest = os.path.join(path, MANIFEST_FILE)
    files[manifest] = text.encode("utf-8")  # renamed into place last
    try:
        for target, data in files.items():
            with open(target + ".tmp", "wb") as fh:
                fh.write(data)
        if os.path.exists(manifest):
            os.remove(manifest)
        for target in files:
            os.replace(target + ".tmp", target)
    finally:
        for target in files:
            if os.path.exists(target + ".tmp"):
                os.remove(target + ".tmp")
    return checksums


def refuse_directory(path: str | os.PathLike) -> None:
    """Raise DataError if `path` is a directory, which ``replacing`` cannot replace."""
    if os.path.isdir(path):
        raise DataError(f"{os.fspath(path)}: is a directory; refusing to replace it with a file")


@contextlib.contextmanager
def replacing(path: str | os.PathLike):
    """Open ``<path>.tmp`` for writing text, renamed over `path` once the block
    completes; a missing parent directory is made first, and a directory at
    `path` refused.  A block that fails leaves the old file, and no ``.tmp``."""
    refuse_directory(path)
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class Container:
    """A container directory opened for reading.

    Opening checks that the manifest exists, is UTF-8 in the dialect and
    names format ``fmt`` at ``version``.  Fields come out typed and blobs
    checked; every failure is a DataError naming the file and the field.
    """

    def __init__(self, path: str | os.PathLike, fmt: str, version: int):
        self.path = str(path)
        self.manifest = os.path.join(self.path, MANIFEST_FILE)
        if not os.path.exists(self.manifest):
            raise DataError(f"no manifest at {self.manifest}")
        self.fields = read_kv(self.manifest)
        if self.fields.get("format") != fmt:
            raise DataError(f"{self.manifest}: unexpected format {self.fields.get('format')!r}, expected {fmt!r}")
        if self.get_int("version", 1) != version:
            raise DataError(f"{self.manifest}: unsupported version {self.fields['version']}, expected {version}")

    def get_text(self, key: str) -> str:
        if key not in self.fields:
            raise DataError(f"{self.manifest}: missing field {key!r}")
        return self.fields[key]

    def get_int(self, key: str, minimum: int = 0) -> int:
        raw = self.get_text(key)
        try:
            value = int(raw)
        except ValueError:
            raise DataError(f"{self.manifest}: field {key!r} is not an integer: {raw!r}") from None
        if value < minimum:
            raise DataError(f"{self.manifest}: field {key!r} must be >= {minimum}, got {value}")
        return value

    def get_float(self, key: str) -> float:
        raw = self.get_text(key)
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{self.manifest}: field {key!r} is not a number: {raw!r}") from None

    def blob(self, stem: str, n_bytes: int) -> bytes:
        """Blob ``<stem>.bin``, checked to hold n_bytes and match its checksum."""
        full = os.path.join(self.path, f"{stem}.bin")
        checksum = self.get_text(f"checksum_{stem}")
        if not os.path.exists(full):
            raise DataError(f"blob missing: {full}")
        with open(full, "rb") as fh:
            blob = fh.read()
        if len(blob) != n_bytes:
            raise DataError(f"{full}: expected {n_bytes} bytes from the manifest, found {len(blob)}")
        if hashlib.sha256(blob).hexdigest() != checksum:
            raise DataError(f"{full}: checksum mismatch for checksum_{stem}")
        return blob
