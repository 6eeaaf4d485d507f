"""``config.load_config``: file and override errors are ``ConfigError``s."""

import pytest

from multirag.config import load_config
from multirag.errors import ConfigError


@pytest.mark.parametrize("key", ["nope", "foo.bar", "seed.x", "retrieval.k.x",
                                 "retrieval.quotas.poem", "embedding.models.0",
                                 "corpus.path", "eval..max_questions"])
def test_a_bad_override_path_is_an_unknown_key(key):
    with pytest.raises(ConfigError, match=f"^unknown config key {key!r}$"):
        load_config(overrides={key: 1})


def test_a_quota_can_be_overridden_by_kind():
    cfg = load_config(overrides={"retrieval.quotas.qa": 2})
    assert cfg["retrieval"]["quotas"] == {"textbook": 1, "qa": 2}


def test_a_quota_override_needs_quotas(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"retrieval": {"quotas": null}}')
    with pytest.raises(ConfigError, match="unknown config key 'retrieval.quotas.qa'"):
        load_config(path, overrides={"retrieval.quotas.qa": 2})


def test_a_deeply_nested_file_is_not_valid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"seed": ' + "[" * 5000 + "]" * 5000 + "}")
    with pytest.raises(ConfigError, match=f"^config {path} is not valid JSON: maximum "
                                          f"recursion depth exceeded"):
        load_config(path)
