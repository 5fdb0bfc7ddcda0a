"""The text format of the command line: write_table writes a table of
columns as CSV or JSON, write_json the verify report, and read_signal
reads a fracop input CSV.  The writer and its inverse reader share one set
of tables: 10^s as exact hi + lo pairs, the [1e-280, 1e280] range where
their products are certified, and the 2^-30 margin of that certificate.

Tables (eval, transform, fracop) are written by _table_text, byte for byte
as "%.16e" writes each float and "%d" each integer or boolean, but a piece
of rows at a time with numpy.  A float's 17 digits are |x| 10^(16 - E)
rounded to the nearest integer, the product taken in double-double
arithmetic (Dekker's two-product).  A cell that product cannot certify is
written by "%.16e" itself: non-finite cells, |x| outside [1e-280, 1e280],
fractions within 2^-30 of .5 (ties included), and digits that round up to
10^17 (9.99...95 carrying into the next exponent).  A piece is one word
matrix whose unused bytes are NUL, and one bytes.translate drops them;
the bytes go to a binary file or stdout's buffer as they are (as ASCII
text to a stdout with no buffer).  _json_layout lays out the verify
report and the JSON record of a table row alike.

read_signal reads a fracop input CSV once, in binary, into a padded
buffer, and _signal_rows reads every layout on one path, a piece of about
32k fields at a time, locating each line ("\n", "\r\n" or a lone "\r", as
in text mode) from its piece's separators.  _float_fields, the writer's
inverse, reads a field shaped like "%.16e" output from 64-bit words, eight
digits per word (Lemire, Softw. Pract. Exp. 51, 2021), and forms
m 10^(E - 16) in double-double with the writer's tables.  It keeps the
rounded double only when it is certified: the residual is not within
2^-30 ulp of a rounding midpoint, the double is not a power of two, and
|x| is in [1e-280, 1e280] with 10^(E - 16) in the table.  Every other
field goes to float, which reads the fields' bytes in a loop that map
runs in C; a file spelled otherwise (shortest repr digits, "%.18e", fixed
point) reads about 2.5 to 5 times slower than one in the writer's
spelling.  A piece with a malformed line, a field float does not read or
a sample that is not finite is read again one line at a time by
_line_rows, which names the file line of the first bad one.
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np

from .errors import SignalFormatError
from .fracops import SampledSignal


def _json_layout(value, indent: int = 0, leaf=None) -> str:
    """Deterministic JSON: two spaces per level, one member per line, and
    floats in 17 significant digits ("%.16e").  leaf=str places every
    non-container value as it is, so a record whose leaves are %-specs
    gives the %-template of one JSON row of _table_text."""
    pad = "  " * indent
    if isinstance(value, dict):
        inner = [f"{json.dumps(str(k))}: {_json_layout(v, indent + 1, leaf)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        inner = [_json_layout(v, indent + 1, leaf) for v in value]
        brackets = "[]"
    elif leaf is not None:
        return leaf(value)
    elif isinstance(value, bool):
        return "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        return str(int(value))
    elif isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    else:
        return json.dumps(str(value))
    if not inner:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(inner) + f"\n{pad}{brackets[1]}"


# rows formatted per piece of output text: bounds the memory alive at once
# while a large table is written
_ROWS_PER_PIECE = 4096

# _float_cells certifies the digits of cells with |x| in this range: there
# neither the powers of ten it needs nor any partial product of its
# two-product under- or overflows
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# the scales s = 16 - E those cells can need, E their decimal exponent
_POW10_SCALES = range(-270, 301)
# y = |x| 10^s is off by at most a few 1e-15 when 10^s is not a double, so
# a fraction of y this close to .5 may round either way; exact ties land
# here too, and "%.16e" settles them all
_HALF_MARGIN = 2.0 ** -30

# Rows are built as little-endian 4-byte words whose padding bytes are NUL;
# a piece drops them all at once, so no literal or cell may hold a NUL.
_WORD = np.dtype("<u4")
# a float cell, the 24 bytes of the longest "%.16e": "-d.d" (sign or NUL,
# the leading digit, the point and one digit), three words of four digits,
# "ddde", and the exponent "+05" or "+105" NUL-padded to a word
_FLOAT_WORDS = 6


def _words(text: bytes):
    """text as words, NUL-padded to a whole word."""
    return np.frombuffer(text + bytes(-len(text) % 4), _WORD)


def _pow10_pairs():
    """10^s = hi + lo for each scale s: hi the double nearest 10^s, lo the
    double nearest the rest.  Python's int division rounds correctly."""
    his, los = [], []
    for s in _POW10_SCALES:
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        p, q = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * q - p * den) / (den * q))
    return np.array(his), np.array(los)


_POW10_HI, _POW10_LO = _pow10_pairs()
# word i holds the four ASCII digits of i, zero-padded
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(
    np.uint8).view(_WORD).ravel()
# word k keeps the last k bytes of a word and sets the others to NUL
_TAIL_KEEP = _words(b"".join(bytes(4 - k) + b"\xff" * k for k in range(5)))
# word 100 s + i of a float cell's head: sign (s = 1) or NUL, then i as "d.d"
_HEAD = _words(b"".join(b"%c%d.%d" % (sign, i // 10, i % 10)
                        for sign in b"\0-" for i in range(100)))
# word i: the last three digits "%03d" % i and the e of the exponent
_DIGITS3E = _words(b"".join(b"%03de" % i for i in range(1000)))
# the exponent's sign and digits as one word, for E in +-_EXP_MAX
_EXP_MAX = 300
_EXP_TEXT = _words(b"".join((b"%+03d" % e).rjust(4, b"\0")
                            for e in range(-_EXP_MAX, _EXP_MAX + 1)))
# "%d" of False and of True
_BOOL_TEXT = _words(b"0\0\0\0" b"1")
# 10^1 .. 10^19: an integer has one digit more than the number it reaches
_INT_POW10 = np.array([10 ** k for k in range(1, 20)], dtype=np.uint64)


def _two_product(a, b):
    """Dekker's two-product: p + err == a*b exactly, with no FMA."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1 splits 53 bits
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled17(mag, e):
    """y = mag 10^(16 - e) in double-double arithmetic, as the integer
    floor(y) and the fraction y - floor(y)."""
    k = 16 - e - _POW10_SCALES.start
    p, err = _two_product(mag, _POW10_HI[k])
    # p >= 2^53 is an integer; err and mag lo hold the fraction
    t = err + mag * _POW10_LO[k]
    floor_t = np.floor(t)
    return p.astype(np.int64) + floor_t.astype(np.int64), t - floor_t


def _float_cells(values):
    """The words of "%.16e" % v for each float v, NUL-padded: a (count,
    _FLOAT_WORDS) word array.

    The 17 digits are |v| 10^(16 - E) rounded to the nearest integer, the
    product taken in double-double arithmetic.  Cells whose digits that
    cannot certify are written by "%.16e" itself: non-finite ones, |v|
    outside [_FAST_MIN, _FAST_MAX], fractions within _HALF_MARGIN of .5,
    and digits that round up to 10^17."""
    v = np.asarray(values, dtype=float).ravel()
    mag = np.abs(v)
    fast = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    mag = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(mag)).astype(np.int64)
    n, frac = _scaled17(mag, e)
    # next to a power of ten the log10 estimate can be one off: judge on
    # floor(y), which must have 17 digits
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if off.size:
        e[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _scaled17(mag[off], e[off])
    n += frac > 0.5
    # n = 10^17 (9.99...95 carrying into the next exponent, 14 doubles in
    # all) and any other n without 17 digits go to the fallback too
    slow = (np.abs(frac - 0.5) < _HALF_MARGIN) | (n < 10 ** 16) | (n >= 10 ** 17)
    slow = np.where(fast, slow, v != 0)
    n[~fast | slow] = 0  # zeros, and placeholders for the slow cells
    e[~fast] = 0

    text = np.empty((v.size, _FLOAT_WORDS), _WORD)
    # digit groups by floor division alone, which numpy does by a
    # multiplication when the divisor is a scalar; the indices stay int64,
    # as numpy converts any other index before it gathers
    top = n // 10 ** 15
    text[:, 0] = _HEAD[top + 100 * np.signbit(v)]
    n -= top * 10 ** 15
    for w, scale in ((1, 10 ** 11), (2, 10 ** 7), (3, 10 ** 3)):
        group = n // scale
        text[:, w] = _DIGITS4[group]
        n -= group * scale
    text[:, 4] = _DIGITS3E[n]
    text[:, 5] = _EXP_TEXT[e + _EXP_MAX]
    if slow.any():
        # one %-format for all of them, each padded to the 24 bytes of its
        # _FLOAT_WORDS words; "%.16e" writes no space itself
        rest = v[slow].tolist()
        cells = (b"%-24.16e" * len(rest) % tuple(rest)).replace(b" ", b"\0")
        text[slow] = np.frombuffer(cells, _WORD).reshape(len(rest), _FLOAT_WORDS)
    return text


# the words of "%.16e" % 0.0
_ZERO_CELL = _float_cells([0.0])[0]


# _float_fields reads the 24 bytes from each field's leading digit at once,
# so its buffer holds this many bytes past the last field
_FIELD_PAD = 32
# bytes of lines _signal_rows reads at once: about 32k "%.16e" fields
_READ_PIECE = 3 << 18
# a line end, as text mode reads them
_LINE_END = re.compile(rb"\r\n?|\n")
# the exponent bits of a double, and its fraction bits
_EXP_BITS, _FRAC_BITS = 0x7FF << 52, (1 << 52) - 1


def _eight_digits(words):
    """Each little-endian word of eight ASCII digits as its value, and
    whether it is eight digits (Lemire's SWAR test and sum)."""
    v = words - 0x3030303030303030
    ok = ((words + 0x4646464646464646) | v) & 0x8080808080808080 == 0
    v = v * 10 + (v >> 8)  # byte 2i: 10 d[2i] + d[2i + 1]
    v = ((v & 0x000000FF000000FF) * (100 + (1000000 << 32))
         + ((v >> 16) & 0x000000FF000000FF) * (1 + (10000 << 32))) >> 32
    return v, ok


def _float_fields(buf, starts, stops):
    """float(buf[s:e]) for each field start s and stop e: the inverse of
    _float_cells.  buf is a bytearray holding _FIELD_PAD bytes past the
    last stop.

    A field of the shape "%.16e" writes, [-]d.<16 digits>e+-dd[d], is read
    from words of buf: its 17 digits form an integer m, two groups of
    eight by _eight_digits.  x = m 10^(E - 16) is formed in double-double
    arithmetic with the writer's tables and kept when it is certified: the
    residual of the rounded double is not within _HALF_MARGIN ulp of a
    rounding midpoint, x is not a power of two (whose lower neighbour is
    nearer), and |x| is in [_FAST_MIN, _FAST_MAX], where no partial
    product under- or overflows.  Every other field, a zero, one not
    certified or one spelled otherwise, goes to float as bytes, in a loop
    that map runs in C; its ValueError propagates."""
    byte = np.frombuffer(buf, np.uint8)
    neg = byte[starts] == ord("-")
    p = starts + neg  # the leading digit
    # three words from it: "d.dddddd", eight digits, and "dde+dd" with the
    # exponent's third digit or the byte after the field
    words = np.ndarray((len(buf) - 23,), "V24", buf, strides=(1,))[p]
    head, body, tail = words.view("<u8").reshape(-1, 3).T
    hi, ok_hi = _eight_digits((head >> 16) | (body << 48))
    lo, ok_lo = _eight_digits((body >> 16) | (tail << 48))
    lead = head & 0xF
    marker = (tail >> 16) & 0xF0F0FFFF  # "e", the sign and two exponent digits
    minus = marker == 0x30302D65
    e = tail >> 32  # the exponent digits, ASCII
    third = (e >> 16 & 0xFF) - ord("0")
    width = stops - p
    shape = (ok_hi & ok_lo & ((head & 0xFFF0) == 0x2E30) & (lead < 10)
             & (minus | (marker == 0x30302B65)) & ((((e & 0x0F0F) + 0x0606) & 0xF0F0) == 0)
             & ((width == 22) | (width == 23) & (third < 10)))
    e = ((e & 0xF) * 10 + (e >> 8 & 0xF)).view(np.int64)
    e += (width == 23) * (9 * e + third.view(np.int64))  # a third digit
    # the table index of 10^(E - 16), checked as unsigned so that one test
    # takes both ends
    k = -16 - _POW10_SCALES.start + e * (1 - 2 * minus.view(np.int8))
    shape &= k.view(np.uint64) < len(_POW10_SCALES)
    m = ((lead * 10 ** 8 + hi) * 10 ** 8 + lo).view(np.int64)
    mag = m.astype(np.float64)
    mag_lo = (m - mag.astype(np.int64)).astype(np.float64)
    p_hi, p_lo = _POW10_HI.take(k, mode="clip"), _POW10_LO.take(k, mode="clip")
    with np.errstate(over="ignore", invalid="ignore"):
        prod, err = _two_product(mag, p_hi)
        low = err + (mag * p_lo + mag_lo * p_hi)
        x = prod + low
        resid = (prod - x) + low
        bits = x.view(np.int64)
        half_ulp = (bits & _EXP_BITS).view(np.float64) * 2.0 ** -53
        certified = (shape & (np.abs(resid) < (1 - 2 * _HALF_MARGIN) * half_ulp)
                     & (bits & _FRAC_BITS != 0) & (x >= _FAST_MIN) & (x <= _FAST_MAX))
    np.negative(x, out=x, where=neg)
    rest = np.flatnonzero(~certified)
    if rest.size:
        # the fields left, each ended by a NUL, gathered into one bytes
        # object and split; float reads bytes as it reads text, and map
        # runs the loop in C
        width = stops[rest] - starts[rest] + 1
        ends = np.cumsum(width)
        text = byte[np.arange(ends[-1]) - np.repeat(ends - width - starts[rest], width)]
        text[ends - 1] = 0
        fields = text.tobytes().split(b"\0")
        if len(fields) != rest.size + 1:
            raise ValueError("a field holds a NUL byte")
        x[rest] = np.fromiter(map(float, fields[:-1]), np.float64, rest.size)
    return x


def _int_cells(values):
    """The words of "%d" % v for each integer or boolean v, NUL-padded: a
    (count, 1 + g) word array, a sign word and g words of four digits, g
    set by the longest cell; a boolean is one gathered word, "0" or "1"."""
    v = np.asarray(values).ravel()
    if v.dtype == bool:
        return _BOOL_TEXT.take(v.view(np.uint8))[:, None]
    v = v.astype(np.int64)
    # -2^63 has no int64 magnitude; its wrapped abs reads right as uint64
    neg, mag = v < 0, np.abs(v).astype(np.uint64)
    digits = 1 + np.searchsorted(_INT_POW10, mag, side="right")
    g = -(-int(digits.max(initial=1)) // 4)
    text = np.empty((v.size, 1 + g), _WORD)
    text[:, 0] = neg.astype(_WORD) * (ord("-") << 24)
    for w in range(g, 0, -1):
        rest = mag // np.uint64(10 ** 4)
        # an int64 index, which numpy gathers unconverted; leading zeros are ANDed to NUL
        text[:, w] = _DIGITS4[(mag - rest * np.uint64(10 ** 4)).astype(np.int64)] & _TAIL_KEEP[
            np.clip(digits - 4 * (g - w), 0, 4)]
        mag = rest
    return text


def _rows_text(literals, specs, columns) -> bytes:
    """Rows literals[0] cell literals[1] cell ... literals[-1], the cells
    of column j written by specs[j] ("%.16e" or "%d"): the text the
    %-template gives.  The piece is laid out as one rows x width word
    matrix whose padding bytes are NUL, and one translate drops them."""
    rows = columns[0].size
    floats = [j for j, spec in enumerate(specs) if spec == "%.16e"]
    # a column of +0.0 alone (every bit clear) repeats one cell
    zeros = [j for j in floats
             if columns[j].dtype == np.float64 and not columns[j].view(np.uint64).any()]
    floats = [j for j in floats if j not in zeros]
    # every other float column of the piece in one pass, column after column
    cells = _float_cells([columns[j] for j in floats])
    cells = dict(zip(floats, cells.reshape(len(floats), rows, _FLOAT_WORDS)))
    cells.update((j, np.broadcast_to(_ZERO_CELL, (rows, _FLOAT_WORDS))) for j in zeros)
    blocks = []  # words of each literal and cell in row order
    for j, literal in enumerate(literals):
        words = _words(literal.encode("ascii"))
        blocks.append(np.broadcast_to(words, (rows, words.size)))
        if j < len(specs):
            blocks.append(cells[j] if j in cells else _int_cells(columns[j]))
    text = np.concatenate(blocks, axis=1)
    del blocks, cells  # the piece's peak is the matrix, its bytes and the kept text
    return text.tobytes().translate(None, b"\0")


def _table_text(fmt: str, header: list[str], columns, fields=None):
    """Text of equal-length columns, one row per index, in pieces of
    _ROWS_PER_PIECE rows: CSV under a header line, or a JSON list of records
    (one flat record of the header names unless fields gives the record
    layout).  Each row follows one %-template, split at its specs; the
    text is byte-identical to "%.16e" for float cells (17 significant
    digits) and "%d" for integer or boolean cells, in the layout of
    _json_layout.  The cells of a piece are written together:
    _float_cells takes the digits from a double-double product and hands
    the cells it cannot certify to "%.16e"; _rows_text lays the piece out
    as one byte matrix and drops its padding."""
    columns = [np.asarray(c) for c in columns]
    specs = ["%d" if c.dtype.kind in "biu" else "%.16e" for c in columns]
    count = columns[0].size
    if fmt == "json":
        if not count:
            yield b"[]\n"
            return
        template = "  " + _json_layout(fields or dict(zip(header, specs)), 1, str)
        sep, head, tail = ",\n", b"[\n", b"\n]\n"
    else:
        template = ",".join(specs)
        sep, head, tail = "\n", (",".join(header) + "\n").encode("ascii"), b"\n"
        if not count:
            yield head
            return
    parts = re.split(r"(%\.16e|%d)", template + sep)
    yield head
    for start in range(0, count, _ROWS_PER_PIECE):
        text = _rows_text(parts[0::2], parts[1::2],
                          [c[start:start + _ROWS_PER_PIECE] for c in columns])
        yield text if start + _ROWS_PER_PIECE < count else text[:-len(sep)] + tail


def write_table(path: str, fmt: str, header: list[str], columns, fields=None):
    """Write the table of _table_text to path, or to stdout for '-'."""
    _write_text(path, _table_text(fmt, header, columns, fields))


def write_json(path: str, doc: dict):
    """Write doc in the layout of _json_layout and a line feed to path, or
    to stdout for '-'."""
    _write_text(path, [(_json_layout(doc) + "\n").encode("utf-8")])


def _write_text(path: str, pieces):
    """Write an iterable of byte pieces to path or to stdout for '-': its
    binary buffer, or the ASCII text of the pieces when sys.stdout is a
    text stream with no buffer."""
    if path == "-":
        sys.stdout.flush()
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.writelines(pieces)
        else:  # a text stream, such as the StringIO of contextlib.redirect_stdout
            sys.stdout.writelines(piece.decode("ascii") for piece in pieces)
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise IOError(f"cannot write {path!r}: {exc}") from exc


def read_signal(path: str) -> SampledSignal:
    """The signal in columns x,value of a CSV file, under an optional
    header line; blank lines are skipped and further columns ignored.
    The file is read once, into a padded buffer, and _signal_rows reads
    its rows."""
    try:
        with open(path, "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size + _FIELD_PAD)
            size = fh.readinto(buf)
            if size > len(buf) - _FIELD_PAD:  # a pipe, or a file that grew
                buf[size:] = fh.read() + bytes(_FIELD_PAD)
                size = len(buf) - _FIELD_PAD
    except OSError as exc:
        raise IOError(f"cannot read {path!r}: {exc}") from exc
    xs, values = _signal_rows(buf, size)
    del buf  # the text is read: free it before the signal's copy
    if xs.size < 2:
        raise SignalFormatError("input signal needs at least two samples")
    steps = np.diff(xs)
    h = float(steps[0])
    # a step may differ from h by 1e-8 h, plus 4 eps max|x| for the rounding of x
    fuzz = 1e-8 * h + 4.0 * sys.float_info.epsilon * max(abs(xs[0]), abs(xs[-1]))
    if h <= 0 or np.max(np.abs(steps - h)) > fuzz:
        raise SignalFormatError("input grid must be uniform and increasing")
    return SampledSignal(float(xs[0]), h, values)


def _signal_rows(buf, size: int):
    """The x and value columns of the CSV text buf[:size]: a (2, rows)
    array, read a piece of lines at a time.

    Lines end at "\n", "\r\n" or a lone "\r", as in text mode.  A line
    with a comma is a row: field 0 ends at its first comma, field 1 at the
    next comma or the line end, and further fields are not read.  A line
    with no comma is blank when its text strips to nothing, and malformed
    otherwise; the first non-blank line is a header when its first field
    float does not read.  _float_fields reads the rows of a piece.  When it
    raises, a row is malformed or a sample is not finite, _line_rows reads
    the piece's rows again, one line at a time, and names the first bad
    line.  Text that is not UTF-8 raises SignalFormatError with the line
    of its first bad byte.  A leading UTF-8 byte-order mark is skipped, as
    the utf-8-sig codec skips it.  buf holds _FIELD_PAD bytes past size; a
    final line feed is written there when the text has no line end, and a
    lone "\r" is written over with "\n"."""
    if not buf.isascii():
        try:
            str(memoryview(buf)[:size], "utf-8")
        except UnicodeDecodeError as exc:
            head = buf[:exc.start]
            line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise SignalFormatError(f"line {line_no}: not UTF-8 text ({exc.reason})") from exc
    if size and buf[size - 1] not in b"\r\n":
        buf[size] = ord("\n")
        size += 1
    byte = np.frombuffer(buf, np.uint8)
    columns, line_no, header = [], 0, True  # header: no non-blank line yet
    start = 3 if buf.startswith(b"\xef\xbb\xbf") else 0  # a byte-order mark is not text
    while start < size:
        # the piece ends at the first line end from start + _READ_PIECE on
        stop = _LINE_END.search(buf, min(start + _READ_PIECE, size - 1), size).end()
        piece = byte[start:stop]
        crs = np.count_nonzero(piece == ord("\r")) if buf.find(b"\r", start, stop) >= 0 else 0
        ends = np.flatnonzero((piece == ord(",")) | (piece == ord("\n"))) + start
        eol = np.flatnonzero(byte[ends] != ord(","))  # the line ends, as indices of ends
        line_end = ends[eol]
        begin = np.concatenate(([start], line_end[:-1] + 1))
        if crs:
            crlf = byte[line_end - 1] == ord("\r")  # byte[-1] is padding
            if crs > np.count_nonzero(crlf):
                # a lone "\r" ends a line as "\n" does: write it so, and read the piece again
                lone = piece == ord("\r")
                lone[:-1] &= piece[1:] != ord("\n")
                piece[lone] = ord("\n")
                continue
            line_end -= crlf  # a "\r\n" line ends at its "\r"
            ends[eol] = line_end
        after = np.concatenate(([0], eol[:-1] + 1))  # each line's first separator
        commas = eol - after
        stop0, stop1 = ends[after], ends.take(after + 1, mode="clip")
        # every line is a row when each has a comma and the header is settled
        keep, x = slice(None), None
        if header or not commas.all():
            skip = commas == 0  # blank, unless the line's text shows otherwise
            for i in np.flatnonzero(skip & (line_end > begin)).tolist():
                skip[i] = not buf[begin[i]:line_end[i]].decode().strip()
            if header and not skip.all():
                i = int(np.argmin(skip))  # the first non-blank line
                skip[i] = not _is_number(buf[begin[i]:stop0[i]].decode())
                header = False
            keep = np.flatnonzero(~skip)
        if commas[keep].all():
            try:
                x = _float_fields(buf, np.concatenate((begin[keep], stop0[keep] + 1)),
                                  np.concatenate((stop0[keep], stop1[keep])))
            except ValueError:
                pass
        if x is None or not np.isfinite(x).all():
            lines = np.arange(eol.size)[keep]
            x = _line_rows(buf, begin[lines], line_end[lines], lines + line_no + 1)
        columns.append(x.reshape(2, -1))
        line_no += eol.size
        start = stop
    return np.concatenate(columns, axis=1) if columns else np.empty((2, 0))


def _line_rows(buf, begins, ends, line_nos):
    """The x and value of each line buf[b:e], read one line at a time with
    float from its stripped text: a (2, lines) array.  The first line
    that is malformed, holds a field float does not read or a sample that
    is not finite raises SignalFormatError with its line number.  A field
    only text reads, such as a Unicode digit, is read here too."""
    rows = []
    for b, e, line_no in zip(begins.tolist(), ends.tolist(), line_nos.tolist()):
        line = buf[b:e].decode().strip()
        cells = line.split(",")
        if len(cells) < 2:
            raise SignalFormatError(f"line {line_no}: need columns x,value")
        try:
            row = float(cells[0]), float(cells[1])
        except ValueError as exc:
            raise SignalFormatError(f"line {line_no}: {exc}") from exc
        if not np.isfinite(row).all():
            raise SignalFormatError(f"line {line_no}: samples must be finite, got {line!r}")
        rows.append(row)
    return np.array(rows).reshape(-1, 2).T


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
