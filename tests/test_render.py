from xml.etree import ElementTree

from gcs2d import (
    Point2,
    build_graph,
    decompose,
    distance,
    enumerate_solutions,
    extract_plan,
    fixture,
    point,
    to_dot,
    to_svg,
)


def test_dot_lists_every_entity_and_constraint():
    g = fixture("triangle")
    dot = to_dot(g)
    assert dot.startswith("graph")
    for entity_id in ("A", "B", "C"):
        assert f'"{entity_id}"' in dot
    assert dot.count("--") == 3
    assert "distance=1" in dot


def test_dot_shapes_follow_entity_kinds():
    dot = to_dot(fixture("cramer-castillon"))
    assert "shape=box" in dot  # lines
    assert "shape=doublecircle" in dot  # circles
    assert "shape=circle" in dot  # points


def test_svg_contains_labelled_dots():
    g = fixture("triangle")
    plan = extract_plan(decompose(g), g)
    sol = enumerate_solutions(plan, g)[0][1]
    svg = to_svg(g, sol.placements)
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 800 600"' in svg
    assert svg.count('fill="crimson"') == 3
    for entity_id in ("A", "B", "C"):
        assert f">{entity_id}</text>" in svg


def test_svg_draws_lines_for_line_entities():
    g = fixture("quad-angle-aux")
    plan = extract_plan(decompose(g), g)
    sol = enumerate_solutions(plan, g, limit=1)[0][1]
    svg = to_svg(g, sol.placements)
    assert "<line" in svg


def test_svg_escapes_entity_ids():
    for ids, shown in (
        (("A&B", "<C>", "D"), ["A&B", "<C>", "D"]),
        # Characters XML 1.0 forbids show as visible escapes.
        (("A\u0001", "B\u000b", "C\ud800"), ["A\\u0001", "B\\u000b", "C\\ud800"]),
    ):
        a, b, c = ids
        g = build_graph([point(a), point(b), point(c)],
                        [distance(a, b, 3.0), distance(a, c, 4.0), distance(b, c, 5.0)])
        sol = enumerate_solutions(extract_plan(decompose(g), g), g, limit=1)[0][1]
        root = ElementTree.fromstring(to_svg(g, sol.placements).encode("utf-8"))
        labels = [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels == shown


def test_svg_of_a_flat_sketch_does_not_change_with_its_scale():
    # The degenerate triangle's points are collinear, so its y extent is 0.
    g = fixture("degenerate-triangle")
    sol = enumerate_solutions(extract_plan(decompose(g), g), g, limit=1)[0][1]
    dots = set()
    for k in (-3, 0, 3):
        scaled = {name: Point2(p.x * 10.0**k, p.y * 10.0**k) for name, p in sol.placements.items()}
        root = ElementTree.fromstring(to_svg(g, scaled))
        dots.add(tuple((c.get("cx"), c.get("cy"))
                       for c in root.iter("{http://www.w3.org/2000/svg}circle")))
    assert len(dots) == 1
    ((x0, _), (x1, _), (x2, _)) = dots.pop()
    assert len({x0, x1, x2}) == 3
