"""The PyYAML half of :mod:`repro.utils.yamlio`, imported on its first YAML text.

A document that ``yamlio`` can read with :mod:`json` never imports this
module, and so never imports PyYAML.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import yaml

YAMLError = yaml.YAMLError

_MERGE_TAG = "tag:yaml.org,2002:merge"
_safe_construct_mapping = yaml.constructor.SafeConstructor.construct_mapping


class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # type: ignore[misc]
    """The safe loader, rejecting mappings that give one key twice.

    YAML says mapping keys are unique; PyYAML keeps the last one silently, so
    a tool with two ``baseCommand:`` lines would load and run the second.
    Keys brought in by a merge (``<<: *base``) may still be overridden.
    """

    def construct_mapping(self, node: Any, deep: bool = False) -> Any:
        # Copied before the base class folds ``<<`` merges into ``node.value``
        # (a node that is no mapping is the base class's to refuse).
        given = tuple(node.value)
        mapping = _safe_construct_mapping(self, node, deep)
        if len(mapping) < len(node.value):  # a repeat, or a merged key overridden
            first_seen: dict = {}
            for key_node, _ in given:
                if key_node.tag == _MERGE_TAG:
                    continue
                key = self.construct_object(key_node, deep=deep)
                if key in first_seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r} (first given on line "
                        f"{first_seen[key].start_mark.line + 1})",
                        key_node.start_mark)
                first_seen[key] = key_node
        return mapping


def double_quoted_spans(text: str) -> List[Tuple[int, int]]:
    """The ``(start, end)`` offsets in ``text`` of each double-quoted scalar,
    quotes included, that PyYAML's pure-Python scanner finds before the end
    of the text or its first error (libyaml's would refuse some escapes)."""
    spans = []
    try:
        for token in yaml.scan(text, Loader=yaml.SafeLoader):
            if isinstance(token, yaml.ScalarToken) and token.style == '"':
                spans.append((token.start_mark.index, token.end_mark.index))
    except yaml.YAMLError:
        pass  # the load reports it
    return spans


def load(stream: Any) -> Any:
    """The document in ``stream`` (a string or an open text file)."""
    return yaml.load(stream, Loader=Loader)  # noqa: S506  (a SafeLoader subclass)
