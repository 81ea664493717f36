"""Output shared by the verbs that write a table or a design file."""

import sys

_BLOCK = 1 << 16


def _blocks(chunks):
    """The strings of chunks joined into blocks of at least _BLOCK characters,
    the last one shorter: a streamed table then reaches a pipe in a few large
    writes, not in one write per 8 KiB buffer flush."""
    block, length = [], 0
    for chunk in chunks:
        block.append(chunk)
        length += len(chunk)
        if length >= _BLOCK:
            yield "".join(block)
            block, length = [], 0
    yield "".join(block)


def _emit(chunks, out) -> None:
    """Write the strings of chunks to the path out, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(_blocks(chunks))
    else:
        sys.stdout.writelines(_blocks(chunks))


def _add_out(p) -> None:
    p.add_argument("--out", help="write to this path instead of stdout")
