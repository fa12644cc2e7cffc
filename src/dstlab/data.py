"""Synthetic blob datasets and label-noise injection with hidden ground truth.

Datasets keep the real label alongside the (possibly corrupted) training
label so downstream audits can classify every sample into one of five
agreement states between noisy label, real label, and model prediction.

Every size, noise kind and rate arrives from a checked `ExperimentConfig`
(through `lab.build_datasets`), and the spread is `SPREAD`, so nothing
here checks a range or a shape again.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Adjacent blob centers sit this many spreads apart. 4 is the hard floor;
# 6 is the smallest spacing that keeps a one-vs-rest least-squares oracle
# at or above 99% train accuracy, leaving the task as hard as separability
# allows so that label noise has something to bite on.
CENTER_SPACING = 6.0
# The blobs' standard deviation, the unit of CENTER_SPACING. It only
# rescales the data: every regime keeps its centers CENTER_SPACING
# spreads apart.
SPREAD = 0.5

NOISE_KINDS = ("sym-c1", "asym")

STATE_NAMES = ("i", "ii", "iii", "iv", "v")


@dataclass
class CleanDataset:
    features: np.ndarray  # [N, D] float64
    true_labels: np.ndarray  # [N] int64
    n_classes: int

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class NoisyDataset(CleanDataset):
    noisy_labels: np.ndarray  # [N] int64


def _blob_centers(n_classes: int, n_features: int, spread: float) -> np.ndarray:
    """Class centers with adjacent pairs CENTER_SPACING * spread apart.

    Centers live on a circle in the first two feature dimensions (a line
    when D == 1); remaining dimensions are zero.
    """
    centers = np.zeros((n_classes, n_features))
    chord = CENTER_SPACING * spread
    if n_features == 1 or n_classes == 2:
        centers[:, 0] = chord * np.arange(n_classes)
    else:
        radius = chord / (2.0 * np.sin(np.pi / n_classes))
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    return centers


def make_blobs(
    n_classes: int,
    per_class: int,
    n_features: int,
    spread: float,
    rng: np.random.Generator,
) -> CleanDataset:
    """Isotropic Gaussian blobs, one per class, in class-block order."""
    centers = _blob_centers(n_classes, n_features, spread)
    n_total = n_classes * per_class
    features = np.repeat(centers, per_class, axis=0)
    features = features + spread * rng.standard_normal((n_total, n_features))
    labels = np.repeat(np.arange(n_classes), per_class)
    return CleanDataset(features=features, true_labels=labels, n_classes=n_classes)


def inject_noise(ds: CleanDataset, kind: str, rate: float, seed: int) -> NoisyDataset:
    """Training labels corrupted by noise of `kind` at `rate`, drawn from
    `seed` alone. A run's manifest records all three (`config.noise_kind`,
    `config.noise_rate`, `seeds.noise`), so its noisy labels can be drawn
    again from the clean set.

    - `sym-c1` relabels exactly floor(rate * N) samples uniformly over all
      classes. A redraw may reproduce the true label, so the realized
      disagreement rate is rate * (C - 1) / C in expectation.
    - `asym` flips each sample independently, with probability rate, to
      the next class, (c + 1) % C.

    The noisy set shares `ds`'s feature and true-label arrays; neither is
    copied or written.
    """
    rng = np.random.default_rng(seed)
    truth, n_classes = ds.true_labels, ds.n_classes
    noisy = truth.copy()
    if kind == "asym":
        flip = rng.random(ds.n_samples) < rate
        noisy[flip] = (truth[flip] + 1) % n_classes
    else:
        chosen = rng.permutation(ds.n_samples)[: int(np.floor(rate * ds.n_samples))]
        noisy[chosen] = rng.integers(0, n_classes, size=chosen.size)
    return NoisyDataset(ds.features, truth, n_classes, noisy)


def audit_states(ds: NoisyDataset, predicted: np.ndarray) -> np.ndarray:
    """Classify every sample into agreement states 1..5.

    With y the noisy label, y_real the true label, and p the prediction:
      1 (i):   y == y_real, p == y_real
      2 (ii):  y == y_real, p != y_real
      3 (iii): y != y_real, p == y_real
      4 (iv):  y != y_real, p != y_real, y == p
      5 (v):   y != y_real, p != y_real, y != p

    This is the one place a label or a prediction is judged right: the
    selection reports read it from the states (`selection.branch_report`).
    """
    y_ok = ds.noisy_labels == ds.true_labels
    p_ok = predicted == ds.true_labels
    y_is_p = ds.noisy_labels == predicted
    states = np.full(ds.n_samples, 5, dtype=np.int64)
    states[y_ok & p_ok] = 1
    states[y_ok & ~p_ok] = 2
    states[~y_ok & p_ok] = 3
    states[~y_ok & ~p_ok & y_is_p] = 4
    return states


def csv_row(fields: Sequence) -> str:
    """One `csv.writer` row: quoted where needed, ending in `\r\n`."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue()


# --- Numbers as CSV text. Each column of a table is formatted at once into
# a byte matrix, one matrix column per value, with short values padded by
# PAD. CSV text is UTF-8, where the byte 0xFF never occurs, so dropping
# every PAD from a row cannot remove a byte of any field.

PAD = 0xFF
CSV_CHUNK_ROWS = 4000  # rows formatted at a time

# Floats with 2**-36 <= |v| < 1e15 get their digits from exact integer
# arithmetic. 2**-36 is the first power of two above 1e-11, so their
# decimal exponent lies in [-11, 14]. The rest (zeros of either sign,
# smaller or larger magnitudes, subnormals, inf and nan) go through `%`.
_EXACT_MIN, _EXACT_MAX = 2.0**-36, 1e15
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE, _TEN, _32, _64 = (np.uint64(k) for k in (1, 10, 32, 64))
_TEN16, _TEN17 = np.uint64(10**16), np.uint64(10**17)
_FLOAT_WIDTH = 22  # the longest exact text: "0.000" + 17 digits, or "d." + 16 + "e-11"
_POSITION = np.arange(_FLOAT_WIDTH, dtype=np.uint8)[:, None]
_COUNTS = np.arange(1, 21, dtype=np.uint8)[:, None]  # 1, 2, ..., 20 down the rows


def _shifted_product(mant: np.ndarray, exp2: np.ndarray, x: np.ndarray):
    """floor(mant * 2**exp2 * 10**(16 - x)) and whether round-half-even
    rounds it up, for 53-bit mantissas and decimal exponents x in [-11, 15].

    The product mant * 5**(16 - x) is at most 2**53 * 5**27 < 2**116, so it
    is held in two uint64 limbs from 32-bit partial products, none of which
    overflows. It is then shifted right by s = -(exp2 + 16 - x), which lies
    in [1, 62] over the exact domain. Every shift count below is thus in
    [0, 63], where numpy's uint64 shifts are well defined, and the low limb
    holds every bit shifted out.
    """
    k = 16 - x
    shift = (-(exp2 + k)).astype(np.uint64)
    p5 = _POW5[k]
    m_hi, m_lo = mant >> _32, mant & _LOW32
    p_hi, p_lo = p5 >> _32, p5 & _LOW32
    mid = m_lo * p_hi + m_hi * p_lo
    low_part = m_lo * p_lo
    lo = low_part + (mid << _32)
    hi = m_hi * p_hi + (mid >> _32) + (lo < low_part)
    q = (hi << (_64 - shift)) | (lo >> shift)
    rest = lo & ((_ONE << shift) - _ONE)
    half = _ONE << (shift - _ONE)
    return q, (rest > half) | ((rest == half) & (q & _ONE == _ONE))


def _round17(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 correctly rounded significant digits of each positive `mag`
    in the exact domain, as an integer in [10**16, 10**17), and its decimal
    exponent x: mag rounds to digits * 10**(x - 16), ties to even."""
    frac, exp2 = np.frexp(mag)
    mant = (frac * 2.0**53).astype(np.uint64)
    exp2 = exp2 - 53
    # log10 can be one off next to a power of ten: redo those values with
    # the exponent that puts the truncated digits in [10**16, 10**17).
    x = np.floor(np.log10(mag)).astype(np.int64)
    q, up = _shifted_product(mant, exp2, x)
    off = np.flatnonzero((q < _TEN16) | (q >= _TEN17))
    if off.size:
        x[off] += np.where(q[off] < _TEN16, -1, 1)
        q[off], up[off] = _shifted_product(mant[off], exp2[off], x[off])
    q += up
    # Rounded up into the next decade. No double in the exact domain does
    # (the nearest that do sit beside 1e-14), but the digits stay right if
    # one did.
    carry = q == _TEN17
    q[carry] = _TEN16
    x[carry] += 1
    return q, x


def _peel(values: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of uint64 `values`, most significant
    first: a (width, n) uint8 matrix."""
    digits = np.empty((width, values.size), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        quotient = values // _TEN
        digits[k] = values - quotient * _TEN
        values = quotient
    return digits


def _exact_text(mag: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` of each positive `mag` in the exact domain, as a
    (width, n) byte matrix padded with PAD.

    %g writes d.ddd...e-XX for decimal exponents x < -4. For x >= -4 it
    writes the digits with the point after digit x, behind "0." and -x-1
    zeros when x < 0. Trailing zeros of the fraction go, and the point
    with them when nothing follows it. All three forms are one pattern:
    `zeros` '0's, then the 17 digits, with '.' inserted at `point`.
    """
    q, x = _round17(mag)
    digits = _peel(q, 17)
    fixed = x >= -4
    point = np.where(fixed, np.maximum(x, 0) + 1, 1).astype(np.uint8)
    zeros = np.where(fixed, np.maximum(-x, 0), 0).astype(np.uint8)
    first_fraction = np.where(fixed, np.maximum(x + 1, 0), 1).astype(np.uint8)
    significant = ((digits != 0) * _COUNTS[:17]).max(axis=0)  # up to the last nonzero
    kept = np.maximum(significant, first_fraction)  # digits written
    # Rows 0-4 of `source` are the leading '0's, rows 5-21 the digits kept.
    # Output byte p is source row 5 + p - shift, shift = zeros + (p > point).
    source = np.full((_FLOAT_WIDTH + 5, mag.size), PAD, dtype=np.uint8)
    source[:5] = ord("0")
    source[5:22] = (digits + np.uint8(ord("0"))) | ((_COUNTS[:17] > kept) * np.uint8(PAD))
    shift = zeros + (_POSITION > point)
    text = source[5:].copy()
    # Blends in uint8 arithmetic: np.where is several times slower here.
    for s in range(1, int(zeros.max()) + 2):
        text += (shift == s) * (source[5 - s : _FLOAT_WIDTH + 5 - s] - text)
    point_char = np.where(kept > first_fraction, np.uint8(ord(".")), np.uint8(PAD))
    text += (_POSITION == point) * (point_char - text)
    if fixed.all():
        return text[: 18 + int(zeros.max())]
    minus_x = (-x).astype(np.uint8)  # in [5, 11]
    suffix = np.stack(
        [np.full_like(minus_x, ord("e")), np.full_like(minus_x, ord("-")),
         ord("0") + minus_x // 10, ord("0") + minus_x % 10]
    )
    text[18:] += ~fixed * (suffix - text[18:])
    return text


def _float_text(values: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` of each float64 value, as a (width, n) byte matrix
    padded with PAD."""
    mag = np.abs(values)
    exact = (mag >= _EXACT_MIN) & (mag < _EXACT_MAX)  # False for nan
    text = _exact_text(np.where(exact, mag, 1.0))  # the others' columns are replaced
    negative = np.signbit(values) & exact
    signed = bool(negative.any())
    others = [b"%.17g" % v for v in values[~exact].tolist()]
    if not (signed or others):
        return text
    width = max([signed + text.shape[0]] + [len(s) for s in others])
    out = np.full((width, values.size), PAD, dtype=np.uint8)
    out[signed : signed + text.shape[0]] = text
    out[0, negative] = ord("-")
    if others:
        padded = b"".join(s.ljust(width, bytes([PAD])) for s in others)
        out[:, ~exact] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width).T
    return out


def _int_text(values: np.ndarray) -> np.ndarray:
    """`'%d' % v` of each integer value, as a (width, n) byte matrix padded
    with PAD."""
    as_unsigned = values.astype(np.uint64)  # two's complement for negatives
    negative = values < 0
    mag = np.where(negative, -as_unsigned, as_unsigned)  # |-2**63| is 2**63 too
    width = len(str(int(mag.max())))
    digits = _peel(mag, width)
    # Digits from the first nonzero one on; zero is "0".
    lengths = np.maximum(((digits != 0) * _COUNTS[width - 1 :: -1]).max(axis=0), 1)
    rows = np.arange(width, dtype=np.uint8)[:, None]
    text = (digits + np.uint8(ord("0"))) | ((rows < width - lengths) * np.uint8(PAD))
    if not negative.any():
        return text
    sign = np.where(negative, np.uint8(ord("-")), np.uint8(PAD))
    return np.concatenate([sign[None], text])


def _column_text(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return _float_text(values.astype(np.float64, copy=False))
    return _int_text(values)


def write_csv(header: Sequence[str], columns: Sequence[np.ndarray], lead: Sequence = ()) -> bytes:
    """The CSV file of `header`, then one row per entry of the equal-length
    `columns`, as UTF-8 bytes: the constant fields `lead`, quoted as
    `csv.writer` quotes them, then each column's value as `'%.17g' % v` for
    a float column and `'%d' % v` for an integer one, byte for byte. Floats
    so written read back exactly.

    Rows are formatted `CSV_CHUNK_ROWS` at a time, and a chunk one column
    at a time: each column's texts into a byte matrix, one matrix column
    per value, stacked with the separators and read out row by row, with
    every PAD dropped.
    """
    prefix = csv_row(lead).removesuffix("\r\n").encode() + b"," if lead else b""
    parts = [csv_row(header).encode()]
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        fields = [_column_text(np.asarray(c[start : start + CSV_CHUNK_ROWS])) for c in columns]
        width = len(prefix) + sum(len(field) + 1 for field in fields) + 1
        rows = np.empty((width, fields[0].shape[1]), dtype=np.uint8)
        rows[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)[:, None]
        end = len(prefix)
        for field in fields:
            rows[end : end + len(field)] = field
            rows[end + len(field)] = ord(",")  # the last one becomes "\r"
            end += len(field) + 1
        rows[end - 1 :] = np.frombuffer(b"\r\n", dtype=np.uint8)[:, None]
        parts.append(rows.T.tobytes().replace(bytes([PAD]), b""))
    return b"".join(parts)


def save_dataset(ds: NoisyDataset) -> bytes:
    """The bytes of `id,true_label,noisy_label,f0..f{D-1}`. A run writes
    them as `dataset.csv`; its `manifest.json` says how they were drawn."""
    header = ["id", "true_label", "noisy_label"] + [f"f{j}" for j in range(ds.n_features)]
    return write_csv(
        header, [np.arange(ds.n_samples), ds.true_labels, ds.noisy_labels, *ds.features.T]
    )
