from jmokit.svg import Scene

# One shape of each kind, with exact binary coordinates and widths: only
# +, -, *, / and comparisons touch them, so these bytes are the same on
# every platform.
EXPECTED = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="556" '
    'viewBox="-0.200000 -3.200000 4.400000 3.400000">\n'
    '<g transform="scale(1,-1)">\n'
    '<polygon points="0.000000,0.000000 4.000000,0.000000 2.000000,3.000000" '
    'fill="#ddaa77" stroke="#884400" stroke-width="0.009167" fill-opacity="0.600000"/>\n'
    '<circle cx="1.000000" cy="1.000000" r="0.500000" fill="none" stroke="#2255cc" '
    'stroke-width="0.007333"/>\n'
    '<line x1="0.000000" y1="3.000000" x2="4.000000" y2="2.000000" stroke="#cc2222" '
    'stroke-width="0.012222"/>\n'
    '<circle cx="2.000000" cy="1.000000" r="0.021389" fill="#cc2222" stroke="none"/>\n'
    '</g>\n'
    '</svg>\n'
)


def test_scene_bytes_are_pinned():
    scene = Scene()
    scene.polygon([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)], stroke="#884400",
                  fill="#ddaa77", width=1.5, opacity=0.6)
    scene.circle((1.0, 1.0), 0.5, stroke="#2255cc", width=1.2)
    scene.line((0.0, 3.0), (4.0, 2.0), stroke="#cc2222", width=2.0)
    scene.dot((2.0, 1.0), fill="#cc2222", size=3.5)
    assert scene.to_svg() == EXPECTED
