import numpy as np
import pytest

from repro.core.blocks import Block, BlockSystem
from repro.io.ascii_art import GLYPHS, render_system

SQ = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def two_blocks():
    return BlockSystem([Block(SQ), Block(SQ + np.array([2.0, 0.0]))])


class TestRenderSystem:
    def test_dimensions(self, two_blocks):
        out = render_system(two_blocks, width=40, height=10)
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(len(l) == 40 for l in lines)

    def test_blocks_drawn_with_distinct_glyphs(self, two_blocks):
        out = render_system(two_blocks, width=60, height=12)
        assert GLYPHS[0] in out
        assert GLYPHS[1] in out

    def test_gap_between_blocks_blank(self, two_blocks):
        # the column band between x=1 and x=2 contains only spaces
        out = render_system(
            two_blocks, width=30, height=10,
            bounds=np.array([1.2, 0.2, 1.8, 0.8]),
        )
        assert set(out.replace("\n", "")) == {" "}

    def test_highlight(self, two_blocks):
        out = render_system(two_blocks, width=40, height=10, highlight={1})
        assert "!" in out
        assert GLYPHS[1] not in out

    def test_top_row_is_high_y(self):
        tall = BlockSystem([Block(SQ), Block(SQ + np.array([0.0, 5.0]))])
        out = render_system(tall, width=20, height=12)
        lines = out.splitlines()
        top_half = "".join(lines[: len(lines) // 2])
        assert GLYPHS[1] in top_half  # the high block renders at the top

    def test_invalid_bounds(self, two_blocks):
        with pytest.raises(ValueError):
            render_system(two_blocks, bounds=np.array([1.0, 0.0, 1.0, 2.0]))
