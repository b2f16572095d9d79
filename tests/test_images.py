import numpy as np
import pytest

from conftest import read_pgm
from spinrbm.images import (PAD_VALUE, rescale_to_gray, spins_to_gray,
                            tile_grid, write_pgm)
from spinrbm.io_util import atomic_write_bytes


def test_spins_to_gray_mapping():
    spins = np.array([[1, -1, -1, 1]], dtype=np.int8)
    (tile,) = spins_to_gray(spins, 2)
    assert tile.tolist() == [[255, 0], [0, 255]]


def test_rescale_constant_tile_is_midgray():
    (tile,) = rescale_to_gray(np.zeros((1, 4)), 2)
    assert np.all(tile == PAD_VALUE)


def test_rescale_spans_full_range():
    (tile,) = rescale_to_gray(np.array([[0.0, 1.0, 2.0, 3.0]]), 2)
    assert tile.min() == 0 and tile.max() == 255


def test_tile_grid_geometry():
    tiles = np.zeros((6, 3, 3), dtype=np.uint8)
    grid = tile_grid(tiles, 3)
    assert grid.shape == (2 * 3 + 3, 3 * 3 + 4)
    assert grid[0, 0] == PAD_VALUE  # border padding


def test_tile_count_mismatch():
    tiles = np.repeat(np.arange(3, dtype=np.uint8), 4).reshape(3, 2, 2)
    # a short last row: the cell past the last tile stays padding, and
    # tile i lies in row-major cell i
    grid = tile_grid(tiles, 2)
    assert grid.shape == (7, 7)
    assert np.all(grid[4:6, 4:6] == PAD_VALUE)
    for i, (y, x) in enumerate(((1, 1), (1, 4), (4, 1))):
        assert np.all(grid[y:y + 2, x:x + 2] == i)


def test_pgm_roundtrip(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert path.read_bytes().startswith(b"P5\n4 3\n255\n")
    assert np.array_equal(read_pgm(path), img)


def test_pgm_of_a_vector_rejected(tmp_path):
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="PGM output requires a 2-D image"):
        write_pgm(path, np.zeros(12, dtype=np.uint8))
    assert not path.exists()


def test_failed_write_keeps_the_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x.pgm"]
