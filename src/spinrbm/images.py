"""PGM (P5) tile-grid output for samples, reconstructions, and weights."""

import numpy as np

from .io_util import atomic_write_bytes

PAD = 1
PAD_VALUE = 128


def spins_to_gray(spins, side):
    """Map a batch of spin vectors to an (n, side, side) uint8 tile stack:
    -1 -> 0, +1 -> 255."""
    spins = np.asarray(spins, dtype=np.int16)
    return ((spins.reshape(-1, side, side) + 1) // 2 * 255).astype(np.uint8)


def rescale_to_gray(values, side):
    """Rescale each real-valued row linearly onto 0-255, as an (n, side,
    side) uint8 tile stack; a constant row (zero range) maps to mid-gray."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, side * side)
    lo = rows.min(axis=1, keepdims=True)
    span = rows.max(axis=1, keepdims=True) - lo
    unit = np.divide(rows - lo, span, where=span > 0,
                     out=np.full_like(rows, PAD_VALUE / 255))
    return np.round(unit * 255).astype(np.uint8).reshape(-1, side, side)


def tile_grid(tiles, n_cols):
    """Lay an (n, th, tw) tile stack out row-major, n_cols to a row, in as
    many rows as the n tiles fill, with 1-px padding (value 128) between and
    around tiles; cells past the last tile stay at 128."""
    n, th, tw = tiles.shape
    n_rows = -(-n // n_cols)
    # a cell is a tile with the padding above and left of it
    cells = np.pad(tiles, ((0, n_rows * n_cols - n), (PAD, 0), (PAD, 0)),
                   constant_values=PAD_VALUE)
    rows = cells.reshape(n_rows, n_cols, th + PAD, tw + PAD).swapaxes(1, 2)
    return np.pad(rows.reshape(n_rows * (th + PAD), n_cols * (tw + PAD)),
                  ((0, PAD), (0, PAD)), constant_values=PAD_VALUE)


def write_pgm(path, image):
    """Write a 2-D uint8 array as a binary PGM (P5) file, atomically."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("PGM output requires a 2-D image")
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    atomic_write_bytes(path, header + image.tobytes())
