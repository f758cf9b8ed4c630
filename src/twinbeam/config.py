"""Strict-schema run configuration shared by the CLI subcommands.

The config is a versioned JSON document; unknown keys are rejected so a
typo can never silently fall back to a default.  Schema problems raise
UsageError (exit 1); values that describe an impossible chain raise
DomainError (exit 2).  The nopo, synth, analyzer and chain channel
sections follow the dataclass each builds (NopoParams, SynthConfig,
AnalyzerSettings, DetectionChain): a key for each field, in field order,
of the field's annotated type.  The four fields in Hz (_HZ_FIELDS) take
the suffix _hz in their keys.  chain.enl and the interferometer section
set no dataclass field.
"""

import hashlib
import json
import math
from dataclasses import dataclass, fields
from reprlib import repr as _brief  # a long outside value prints cut short

from .atomic import unique_keys
from .dsp import AnalyzerSettings, segment_length
from .errors import DomainError, UsageError
from .model import NopoParams
from .synth import DetectionChain, SynthConfig

CONFIG_VERSION = "twinbeam-config/2"


_HZ_FIELDS = {"cavity_bandwidth", "sample_rate", "rbw", "vbw"}  # in Hz, so their keys end _hz


def _section(cls):
    """The schema of the section that builds cls: its fields, in order, with their types."""
    return {(f"{field.name}_hz" if field.name in _HZ_FIELDS else field.name): field.type
            for field in fields(cls)}


_SCHEMA = {
    "version": str,  # parse_config compares it with CONFIG_VERSION before the schema check
    "nopo": _section(NopoParams),
    "synth": _section(SynthConfig),
    "chain": {"enl": float, "amplitude": _section(DetectionChain),
              "phase": _section(DetectionChain)},
    "analyzer": _section(AnalyzerSettings),
    "interferometer": {"analysis_frequency_hz": float},
}


def _check_node(node, schema, path):
    if not isinstance(node, dict):
        raise UsageError(f"{path} must be a JSON object")
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise UsageError(f"unknown key(s) {_brief(unknown)} under {path or 'config root'}")
    for key, expected in schema.items():
        where = f"{path}.{key}" if path else key
        if node.get(key) is None:
            raise UsageError(f"missing required key {where}")
        value = node[key]
        if isinstance(expected, dict):
            _check_node(value, expected, where)
        elif expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"{where} must be a number, got {type(value).__name__}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                raise UsageError(f"{where} is too large for a float") from None
            if not finite:
                raise UsageError(f"{where} must be finite")
        elif expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{where} must be an integer, got {type(value).__name__}")


def _fields(section):
    """A section's checked keys as the keyword arguments of its dataclass."""
    return {key.removesuffix("_hz"): value for key, value in section.items()}


def config_hash(document):
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: physics, synthesis, chains, analyzer, analysis frequency.

    The interferometer follows from analysis_frequency (f0, in Hz): its arm
    imbalance is model.arm_length_difference(f0) and its dc phase pi/2.
    """
    nopo: NopoParams
    synth: SynthConfig
    enl: float
    amplitude_chain: DetectionChain
    phase_chain: DetectionChain
    analyzer: AnalyzerSettings
    analysis_frequency: float
    hash: str


def parse_config(document):
    if not isinstance(document, dict):
        raise UsageError("config root must be a JSON object")
    if document.get("version") == "twinbeam-config/1":
        raise UsageError(
            "config version 'twinbeam-config/1' is retired: delete synth.conjugate_mode, "
            "synth.conjugate_excess and interferometer.winding_integer (they changed no "
            f"output) and set version to {CONFIG_VERSION!r}")
    if document.get("version") != CONFIG_VERSION:
        raise UsageError(
            f"config version must be {CONFIG_VERSION!r}, got {_brief(document.get('version'))}")
    _check_node(document, _SCHEMA, "")

    params = NopoParams(**_fields(document["nopo"]))
    synth_cfg = SynthConfig(**_fields(document["synth"]))

    chain_doc = document["chain"]
    enl = chain_doc["enl"]
    if not 0 <= enl < 1:
        raise DomainError(f"chain.enl must be in [0, 1), got {enl}")

    analyzer = AnalyzerSettings(**_fields(document["analyzer"]))
    length = segment_length(synth_cfg.sample_rate, analyzer)  # raises unless it is usable
    if synth_cfg.num_samples < length + length // 2:  # as dsp.welch_psd would refuse the trace
        raise DomainError(f"synth.num_samples {synth_cfg.num_samples} too short for two "
                          f"{length}-sample analyzer segments at 50% overlap; need at least "
                          f"{length + length // 2}")

    f0 = document["interferometer"]["analysis_frequency_hz"]
    if f0 >= synth_cfg.sample_rate / 2:
        raise UsageError(f"interferometer.analysis_frequency_hz {f0:.6g} Hz is not below "
                         f"the Nyquist frequency {synth_cfg.sample_rate / 2:.6g} Hz")
    if f0 <= 0:
        raise DomainError(f"analysis frequency must be positive, got {f0}")

    return RunConfig(
        nopo=params,
        synth=synth_cfg,
        enl=enl,
        amplitude_chain=DetectionChain(**chain_doc["amplitude"]),
        phase_chain=DetectionChain(**chain_doc["phase"]),
        analyzer=analyzer,
        analysis_frequency=f0,
        hash=config_hash(document),
    )


def load_config(path):
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # not UTF-8 text, not JSON, or nested too deep
            raise UsageError(f"config is not valid JSON: {exc}") from exc
    return parse_config(document)
