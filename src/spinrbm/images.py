"""PGM (P5) tile-grid output for samples, reconstructions, and weights."""

import numpy as np

from .io_util import atomic_write_bytes

PAD = 1
PAD_VALUE = 128


def spins_to_gray(spins, side):
    """Map a batch of spin vectors to uint8 tiles: -1 -> 0, +1 -> 255."""
    spins = np.asarray(spins, dtype=np.int16)
    tiles = ((spins.reshape(-1, side, side) + 1) // 2 * 255).astype(np.uint8)
    return list(tiles)


def rescale_to_gray(values, side):
    """Per-tile linear rescale of real-valued vectors to 0-255; a constant
    tile (zero range) maps to mid-gray."""
    values = np.asarray(values, dtype=np.float64)
    tiles = []
    for row in values.reshape(-1, side * side):
        lo, hi = row.min(), row.max()
        if hi - lo == 0:
            tile = np.full((side, side), PAD_VALUE, dtype=np.uint8)
        else:
            tile = np.round((row - lo) / (hi - lo) * 255).astype(np.uint8)
            tile = tile.reshape(side, side)
        tiles.append(tile)
    return tiles


def tile_grid(tiles, n_rows, n_cols):
    """Assemble tiles row-major into one image with 1-px padding (value 128)
    between and around tiles; cells past the last tile stay at 128."""
    if len(tiles) > n_rows * n_cols:
        raise ValueError(f"{len(tiles)} tiles exceed a {n_rows}x{n_cols} grid")
    th, tw = tiles[0].shape
    height = n_rows * th + (n_rows + 1) * PAD
    width = n_cols * tw + (n_cols + 1) * PAD
    grid = np.full((height, width), PAD_VALUE, dtype=np.uint8)
    for idx, tile in enumerate(tiles):
        r, c = divmod(idx, n_cols)
        y = PAD + r * (th + PAD)
        x = PAD + c * (tw + PAD)
        grid[y:y + th, x:x + tw] = tile
    return grid


def write_pgm(path, image):
    """Write a 2-D uint8 array as a binary PGM (P5) file, atomically."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("PGM output requires a 2-D image")
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    atomic_write_bytes(path, header + image.tobytes())

