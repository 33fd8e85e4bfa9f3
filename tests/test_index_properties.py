"""Property test of the ingest link loop against a brute force over id strings."""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citescore import ingest

from helpers import pub_line, source_line, stored

# Few ids, so that a stream often holds pairs whose packed keys would
# collide under a multiplier one too small: (a, last) and (a + 1, first).
_IDS = ["p0", "p1", "p2", "p3"]
# An id of no publication, and a prefix of the real ones.
_GHOST = "p"


def _link_text(citing, cited, unknown, reverse):
    items = [("citing_pub_id", citing), ("cited_pub_id", cited)]
    if reverse:
        items.reverse()
    if unknown:
        items.insert(1, ("note", 1))
    return json.dumps(dict(items)) + "\n"


_BLANK = st.sampled_from(["\n", " \x0c \n"])


def _publications(draw):
    """(publication ids, their article-in-press flags, a strategy for a link endpoint)."""
    pub_ids = _IDS[:draw(st.integers(min_value=0, max_value=len(_IDS)))]
    in_press = draw(st.lists(st.sampled_from([False, False, True]), min_size=len(pub_ids), max_size=len(pub_ids)))
    return pub_ids, in_press, st.sampled_from(pub_ids + [_GHOST])


@st.composite
def _corpora(draw):
    """(publication ids, their article-in-press flags, link lines)."""
    pub_ids, in_press, ends = _publications(draw)
    link = st.builds(_link_text, ends, ends, st.booleans(), st.booleans())
    lines = draw(st.lists(st.one_of(link, link, link, _BLANK), max_size=60))
    return pub_ids, in_press, lines


@st.composite
def _grouped_corpora(draw):
    """A corpus whose link lines come grouped by citing id, as reference
    lists do, with blank lines anywhere and at most one line moved out of
    its group."""
    pub_ids, in_press, ends = _publications(draw)
    links = draw(st.lists(st.tuples(ends, ends, st.booleans(), st.booleans()), max_size=40))
    lines = [_link_text(*link) for link in sorted(links, key=lambda link: link[0])]
    if lines and draw(st.booleans()):
        moved = lines.pop(draw(st.integers(min_value=0, max_value=len(lines) - 1)))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), moved)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(_BLANK))
    return pub_ids, in_press, lines


def _brute_force(aip, lines):
    """(links, link counts, warnings) of the link lines over publications
    whose article-in-press flags aip holds, deduplicated on (citing_id,
    cited_id) string tuples."""
    links, seen, warnings = [], set(), []
    counts = {"links_accepted": 0, "links_rejected": 0, "links_collapsed": 0}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = json.loads(line)
        for key in obj:
            if key not in ("citing_pub_id", "cited_pub_id"):
                warnings.append(f"links line {lineno}: ignoring unknown field {key!r}")
        citing, cited = obj["citing_pub_id"], obj["cited_pub_id"]
        if citing == cited:
            warnings.append(f"links line {lineno}: publication cannot cite itself ({citing!r})")
        elif citing not in aip or cited not in aip:
            missing = citing if citing not in aip else cited
            warnings.append(f"links line {lineno}: dangling endpoint {missing!r}, link rejected")
        elif aip[citing]:
            warnings.append(
                f"links line {lineno}: citing publication {citing!r} is an "
                "article-in-press and cannot give citations, link rejected"
            )
        elif (citing, cited) in seen:
            counts["links_collapsed"] += 1
            continue
        else:
            seen.add((citing, cited))
            links.append((citing, cited))
            counts["links_accepted"] += 1
            continue
        counts["links_rejected"] += 1
    return links, counts, warnings


@settings(max_examples=300, deadline=None)
@given(_corpora())
# Keys 0 * 3 + 3 and 1 * 3 + 0 under a multiplier of 3, one too small for 4 publications.
@example(corpus=(_IDS, [False] * 4, [_link_text("p0", "p3", False, False), _link_text("p1", "p0", False, False)]))
def test_link_ingest_equals_string_tuple_brute_force(corpus):
    _assert_equals_brute_force(corpus)


def _links(*pairs):
    return [_link_text(citing, cited, False, False) for citing, cited in pairs]


@settings(max_examples=300, deadline=None)
@given(_grouped_corpora())
# A duplicate inside one citing id's run.
@example(corpus=(_IDS, [False] * 4, _links(("p0", "p1"), ("p0", "p2"), ("p0", "p1"), ("p1", "p0"))))
# A duplicate across two runs of one citing id: the third line resumes p0's run.
@example(corpus=(_IDS, [False] * 4, _links(("p0", "p1"), ("p1", "p0"), ("p0", "p1"), ("p0", "p2"))))
# After that switch, duplicates of links accepted before it and on it.
@example(corpus=(_IDS, [False] * 4, _links(
    ("p0", "p1"), ("p1", "p2"), ("p0", "p3"), ("p1", "p2"), ("p0", "p1"), ("p0", "p3"), ("p2", "p1"), ("p1", "p2"))))
# Rejected lines (dangling, blank, article-in-press citing, self-citation)
# between two links of one citing id do not split its run.
@example(corpus=(_IDS, [False, False, False, True], [
    *_links(("p0", "p1"), ("p0", _GHOST)), "\n",
    *_links(("p3", "p1"), ("p0", "p0"), (_GHOST, "p2"), ("p0", "p1"), ("p0", "p2"), ("p1", "p0")),
]))
def test_grouped_link_ingest_equals_string_tuple_brute_force(corpus):
    _assert_equals_brute_force(corpus)


def _assert_equals_brute_force(corpus):
    pub_ids, in_press, lines = corpus
    pubs = [pub_line(pub_id, 1, 2016, aip=flag) for pub_id, flag in zip(pub_ids, in_press)]
    index, report = ingest([source_line(1)], pubs, lines)

    links, counts, warnings = _brute_force(dict(zip(pub_ids, in_press)), lines)
    assert stored(index, pub_ids)[1] == links
    assert report.counts() == {
        "sources_accepted": 1, "sources_rejected": 0,
        "publications_accepted": len(pub_ids), "publications_rejected": 0,
        **counts,
    }
    assert report.warnings == warnings
    assert index.link_count == len(links)
