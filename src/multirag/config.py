"""File-backed run configuration: schema validation and object wiring.

The config is a JSON document; unknown keys are rejected everywhere so a
typo cannot silently disable an option. Credentials never live in the
file — only the *names* of environment variables that hold them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .confidence import EPSILON, METRICS
from .corpus import KINDS, Corpus
from .embedding import DeterministicProvider, RemoteProvider
from .errors import ConfigError
from .evaluation import MAX_CDF_SIGMA
from .generation import DecodeParams, MockBackend, OpenAIChatBackend
from .pipeline import PipelineConfig
from .retrieval import PromptTemplate

PIPELINES = ("vanilla", "mixture", "confident")

_DEFAULTS = {
    "embedding": {
        "mode": "deterministic",
        "models": ["det-a", "det-b", "det-c", "det-d"],
        "dimension": 32,
        "endpoint": None,
        "api_key_env": None,
        "batch_size": 64,
    },
    "backend": {
        "mode": "mock",
        "model": "mock-llm",
        "endpoint": None,
        "api_key_env": None,
        "vocab_size": None,
        "top_logprobs": 20,
        "temperature": 0.0,
        "max_tokens": 256,
    },
    "retrieval": {
        "k": 4,
        "quotas": {"textbook": 1, "qa": 3},
        "template_path": None,
    },
    "confidence": {"metric": "self-certainty"},
    "eval": {
        "pipelines": ["vanilla", "mixture", "confident"],
        "combination_sizes": [2, 3, 4],
        "include_vanilla_llm": True,
        "max_questions": None,
        "cdf_sigma": 1.0,
    },
    "corpus": [],
    "gold_path": None,
    "output_dir": "out",
    "seed": 0,
    "concurrency": 1,
}


@dataclass
class RunConfig:
    data: dict
    path: str | None = None

    def __getitem__(self, key):
        return self.data[key]

    def config_hash(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()


# keys whose values are free-form data, not nested schema sections
_OPAQUE = {"config.retrieval.quotas"}


def _merge(defaults, value, crumb: str):
    if isinstance(defaults, dict) and crumb not in _OPAQUE:
        if not isinstance(value, dict):
            raise ConfigError(f"{crumb}: expected an object")
        unknown = set(value) - set(defaults)
        if unknown:
            raise ConfigError(f"{crumb}: unknown key(s) {sorted(unknown)}")
        return {k: _merge(defaults[k], value[k], f"{crumb}.{k}") if k in value
                else _deep_copy(defaults[k]) for k in defaults}
    return value


def _deep_copy(value):
    return json.loads(json.dumps(value))


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Load, default-fill, and validate a run config; flags win over the file."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {path} is not valid UTF-8: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: top level must be an object")
    data = _merge(_DEFAULTS, raw, "config")
    for key, value in (overrides or {}).items():
        _apply_override(data, key, value)
    _validate(data)
    return RunConfig(data=data, path=str(path) if path else None)


def _apply_override(data: dict, dotted: str, value) -> None:
    node = data
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    node[parts[-1]] = value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(value, low: int) -> bool:
    return _is_int(value) and value >= low


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(data: dict) -> None:
    emb = data["embedding"]
    if emb["mode"] not in ("deterministic", "remote"):
        raise ConfigError(f"embedding.mode {emb['mode']!r} must be deterministic|remote")
    models = emb["models"]
    if not isinstance(models, list) or not models:
        raise ConfigError("embedding.models must be a non-empty list of unique ids")
    for mid in models:
        # "" is the bare LLM's tag, and report keys join model ids with commas
        if not isinstance(mid, str) or not mid or "," in mid:
            raise ConfigError(
                f"embedding.models must be non-empty strings without commas, not {mid!r}")
    if len(set(models)) != len(models):
        raise ConfigError("embedding.models must be a non-empty list of unique ids")
    for key in ("dimension", "batch_size"):
        if not _int_at_least(emb[key], 1):
            raise ConfigError(f"embedding.{key} must be a positive integer")
    if emb["mode"] == "remote" and not emb["endpoint"]:
        raise ConfigError("embedding.endpoint is required in remote mode")

    backend = data["backend"]
    if backend["mode"] not in ("mock", "remote"):
        raise ConfigError(f"backend.mode {backend['mode']!r} must be mock|remote")
    if backend["mode"] == "remote":
        if not backend["endpoint"]:
            raise ConfigError("backend.endpoint is required in remote mode")
        if backend["vocab_size"] is None:
            raise ConfigError("backend.vocab_size is required in remote mode "
                              "(the provider does not report it)")
    if backend["vocab_size"] is not None and not _int_at_least(backend["vocab_size"], 1):
        raise ConfigError("backend.vocab_size must be a positive integer")
    if not _int_at_least(backend["max_tokens"], 1):
        raise ConfigError("backend.max_tokens must be a positive integer")
    if not _int_at_least(backend["top_logprobs"], 0):
        raise ConfigError("backend.top_logprobs must be an integer >= 0")
    temperature = backend["temperature"]
    if not _is_number(temperature) or not 0 <= temperature < math.inf:
        raise ConfigError("backend.temperature must be a finite number >= 0")

    if data["confidence"]["metric"] not in METRICS:
        raise ConfigError(f"confidence.metric must be one of {METRICS}")

    retr = data["retrieval"]
    if not _int_at_least(retr["k"], 0):
        raise ConfigError("retrieval.k must be an integer >= 0")
    if retr["quotas"] is not None:
        if not isinstance(retr["quotas"], dict):
            raise ConfigError("retrieval.quotas must be an object or null")
        for kind, count in retr["quotas"].items():
            if kind not in KINDS:
                raise ConfigError(f"retrieval.quotas: unknown kind {kind!r}")
            if not _int_at_least(count, 0):
                raise ConfigError(f"retrieval.quotas[{kind!r}] must be a count")
    if retr["template_path"] is not None and not isinstance(retr["template_path"], str):
        raise ConfigError("retrieval.template_path must be null or a string")

    ev = data["eval"]
    for key in ("pipelines", "combination_sizes"):
        if not isinstance(ev[key], list):
            raise ConfigError(f"eval.{key} must be a list")
    if not isinstance(ev["include_vanilla_llm"], bool):
        raise ConfigError("eval.include_vanilla_llm must be true or false")
    for p in ev["pipelines"]:
        if p not in PIPELINES:
            raise ConfigError(f"eval.pipelines: unknown pipeline {p!r}")
    for n in ev["combination_sizes"]:
        if not _int_at_least(n, 1):
            raise ConfigError("eval.combination_sizes must be positive integers")
        if n > len(emb["models"]):
            raise ConfigError(
                f"combination size {n} exceeds the {len(emb['models'])} configured models")
    limit = ev["max_questions"]
    if limit is not None and not _int_at_least(limit, 1):
        raise ConfigError("eval.max_questions must be null or a positive integer")
    sigma = ev["cdf_sigma"]
    if not _is_number(sigma) or not 0 <= sigma <= MAX_CDF_SIGMA:
        raise ConfigError(f"eval.cdf_sigma must be a number in [0, {MAX_CDF_SIGMA:g}]")

    if not isinstance(data["corpus"], list):
        raise ConfigError("corpus must be a list")
    for entry in data["corpus"]:
        if not isinstance(entry, dict) or set(entry) - {"path", "kind"}:
            raise ConfigError("corpus entries must be {'path', 'kind'} objects")
        if entry.get("kind", "qa") not in KINDS:
            raise ConfigError(f"corpus entry kind {entry.get('kind')!r} unknown")
        if not isinstance(entry.get("path"), str) or not entry["path"]:
            raise ConfigError("corpus entry 'path' must be a non-empty string")

    if not _is_int(data["seed"]):
        raise ConfigError("seed must be an integer")
    if not _int_at_least(data["concurrency"], 1):
        raise ConfigError("concurrency must be a positive integer")
    if not isinstance(data["output_dir"], str) or not data["output_dir"]:
        raise ConfigError("output_dir must be a non-empty string")
    if data["gold_path"] is not None and not isinstance(data["gold_path"], str):
        raise ConfigError("gold_path must be null or a string")


# ---------------------------------------------------------------------------
# object wiring
# ---------------------------------------------------------------------------

def default_template_text() -> str:
    return resources.files("multirag").joinpath("templates/default_prompt.txt") \
        .read_text(encoding="utf-8")


def build_template(cfg: RunConfig) -> PromptTemplate:
    path = cfg["retrieval"]["template_path"]
    if not path:
        return PromptTemplate(text=default_template_text())
    try:
        return PromptTemplate(text=Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"retrieval.template_path {path!r} cannot be read: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"retrieval.template_path {path!r} is not valid UTF-8: {e}") from e


def build_providers(cfg: RunConfig) -> list:
    emb = cfg["embedding"]
    if emb["mode"] == "deterministic":
        return [DeterministicProvider(mid, dim=emb["dimension"]) for mid in emb["models"]]
    return [
        RemoteProvider(mid, endpoint=emb["endpoint"], api_key_env=emb["api_key_env"],
                       batch_size=emb["batch_size"])
        for mid in emb["models"]
    ]


def build_backend(cfg: RunConfig):
    b = cfg["backend"]
    if b["mode"] == "mock":
        return MockBackend(seed=cfg["seed"])
    return OpenAIChatBackend(model=b["model"], endpoint=b["endpoint"],
                             api_key_env=b["api_key_env"], vocab_size=b["vocab_size"])


def build_pipeline_config(cfg: RunConfig) -> PipelineConfig:
    backend = build_backend(cfg)
    decode = DecodeParams(
        temperature=cfg["backend"]["temperature"],
        max_tokens=cfg["backend"]["max_tokens"],
        top_logprobs=cfg["backend"]["top_logprobs"],
    )
    return PipelineConfig(
        providers=build_providers(cfg),
        backend=backend,
        template=build_template(cfg),
        k=cfg["retrieval"]["k"],
        quotas=cfg["retrieval"]["quotas"],
        metric=cfg["confidence"]["metric"],
        decode=decode,
        seed=cfg["seed"],
        concurrency=cfg["concurrency"],
    )


def load_corpus(cfg: RunConfig) -> Corpus:
    """The configured corpus; its snapshot and matrices are stored under
    ``<output_dir>/index``."""
    entries = [(entry["path"], entry.get("kind", "qa")) for entry in cfg["corpus"]]
    return Corpus.from_files(entries, store=Path(cfg["output_dir"]) / "index")


def build_manifest(cfg: RunConfig, pipeline_cfg: PipelineConfig,
                   pipeline: str | None = None) -> dict:
    backend = cfg["backend"]
    mock = backend["mode"] == "mock"
    return {
        "config_hash": cfg.config_hash(),
        "config_path": cfg.path,
        "seed": cfg["seed"],
        "embedding_models": [p.model_id for p in pipeline_cfg.providers],
        "embedding_mode": cfg["embedding"]["mode"],
        "backend": {"mode": backend["mode"], "model": backend["model"]},
        "distribution_mode": "full" if mock else "truncated",
        "vocab_size": pipeline_cfg.backend.vocab_size,
        "epsilon": EPSILON,
        "decode": {
            "temperature": pipeline_cfg.decode.temperature,
            "max_tokens": pipeline_cfg.decode.max_tokens,
            "top_logprobs": pipeline_cfg.decode.top_logprobs,
        },
        "metric": pipeline_cfg.metric,
        "k": pipeline_cfg.k,
        "quotas": pipeline_cfg.quotas,
        "pipeline": pipeline,
    }
