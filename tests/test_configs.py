"""Config sections: JSON round trip, and the JSON type every field takes."""
import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from seqrec.configs import SECTIONS, from_json_dict, to_json_dict

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

# (section, field, declared type); the declared type is the annotation text.
FIELDS = [(section, f.name, f.type) for section, cls in SECTIONS.items()
          for f in dataclasses.fields(cls)]

# The JSON kinds each declared type accepts; "| None" adds null.
ACCEPTS = {"bool": {"boolean"}, "int": {"integer"}, "float": {"integer", "float"},
           "str": {"string"}, "tuple[str, ...]": {"list of strings"}}

# Values of each other JSON kind. A float is never an integer here, even 2.0,
# and the lists hold a non-string, so no list is a list of strings.
OTHER_KINDS = {
    "string": st.text(max_size=6),
    "boolean": st.booleans(),
    "float": st.floats(allow_nan=False),
    "list": st.lists(st.one_of(st.integers(), st.booleans(), st.none()),
                     min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    "null": st.none(),
}


def _accepted(declared: str) -> set:
    base, _, optional = declared.partition(" | ")
    return ACCEPTS[base] | ({"null"} if optional == "None" else set())


@pytest.mark.parametrize("section", SECTIONS)
def test_defaults_round_trip(section):
    cls = SECTIONS[section]
    assert from_json_dict(cls, to_json_dict(cls())) == cls()


@pytest.mark.parametrize("section,name,declared", FIELDS)
@PROPERTY
@given(data=st.data())
def test_value_of_another_json_type_names_the_key(section, name, declared, data):
    kind = data.draw(st.sampled_from(sorted(set(OTHER_KINDS) - _accepted(declared))))
    value = data.draw(OTHER_KINDS[kind])
    with pytest.raises(ValueError, match=re.escape(f"{section}.{name} must be ")):
        from_json_dict(SECTIONS[section], {name: value})
