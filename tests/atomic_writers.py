"""The three atomic writers of :mod:`repro.io.batch_io` as one table.

All three ride the one atomic-replace protocol, so a test that holds
the protocol to a property runs it through each writer.
"""

import json

from repro.io.batch_io import (
    copy_file_atomic,
    write_json_atomic,
    write_text_atomic,
)


def _copy(target, data: bytes):
    src = target.parent.parent / "src.bin"
    src.write_bytes(data)
    return copy_file_atomic(src, target)


#: writer name -> (write(target, data), bytes that ``data`` becomes on
#: disk).
WRITERS = {
    "json": (lambda t, d: write_json_atomic(t, d.decode()),
             lambda d: json.dumps(d.decode()).encode()),
    "text": (lambda t, d: write_text_atomic(t, d.decode()), lambda d: d),
    "copy": (_copy, lambda d: d),
}
OLD, NEW = b"old " * 64, b"new record " * 64
